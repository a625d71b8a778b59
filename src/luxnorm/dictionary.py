"""Lemma-to-spelling-variants dictionary with weighted sampling.

The resource maps each standard written form to the non-standard
spellings observed for it, together with how often each spelling was
used. File format is TSV: `lemma<TAB>variant<TAB>count`, UTF-8; blank
lines and `#` comment lines are skipped. Dictionaries are immutable after
loading, apart from running counts kept on first draw, and safe to share
across workers; sampling uses a caller-owned random stream.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Sequence

from luxnorm.errors import DictionaryLookupError, ParseError, parse_int, read_tsv


@dataclass(frozen=True)
class VariantEntry:
    """One observed spelling of a lemma with its usage count."""

    variant: str
    count: int


class VariantDictionary:
    """Immutable lemma -> weighted variant list with case-folded fallback."""

    def __init__(self, entries: dict[str, list[VariantEntry]]):
        for lemma, variants in entries.items():
            if not lemma:
                raise ValueError("empty lemma key")
            if not variants:
                raise ValueError(f"lemma {lemma!r} has no variants")
            seen = set()
            for entry in variants:
                if entry.count < 1:
                    raise ValueError(f"non-positive count for {lemma!r}/{entry.variant!r}")
                if not entry.variant or "\t" in entry.variant or "\n" in entry.variant:
                    raise ValueError(f"invalid variant {entry.variant!r} for lemma {lemma!r}")
                if entry.variant in seen:
                    raise ValueError(f"duplicate variant {entry.variant!r} for lemma {lemma!r}")
                seen.add(entry.variant)
        self._entries = entries
        self._totals = {lemma: sum(e.count for e in vs) for lemma, vs in entries.items()}
        # Case-folded fallback: prefer the highest-total key, then the
        # lexicographically smallest, so folded lookups are deterministic.
        fold: dict[str, str] = {}
        for lemma in entries:
            key = lemma.casefold()
            best = fold.get(key)
            if (
                best is None
                or self._totals[lemma] > self._totals[best]
                or (self._totals[lemma] == self._totals[best] and lemma < best)
            ):
                fold[key] = lemma
        self._fold = fold
        # running variant counts per lemma, built on first draw
        self._cumulative: dict[str, tuple[int, ...]] = {}

    def __contains__(self, lemma: str) -> bool:
        return lemma in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def lemmas(self) -> Iterable[str]:
        return self._entries.keys()

    def variants(self, lemma: str) -> list[VariantEntry]:
        try:
            return list(self._entries[lemma])
        except KeyError:
            raise DictionaryLookupError(lemma) from None

    def total_count(self, lemma: str) -> int:
        try:
            return self._totals[lemma]
        except KeyError:
            raise DictionaryLookupError(lemma) from None

    def resolve(self, token: str) -> str | None:
        """Return the dictionary key for `token`: exact match first, then
        case-folded fallback. None when the token is unknown either way."""
        if token in self._entries:
            return token
        return self._fold.get(token.casefold())

    def probabilities(self, lemma: str) -> dict[str, Fraction]:
        """Exact sampling probability of each variant of `lemma`."""
        total = self.total_count(lemma)
        return {e.variant: Fraction(e.count, total) for e in self._entries[lemma]}

    def sample_variant(self, lemma: str, rng: random.Random) -> str:
        """Draw one variant of `lemma` proportionally to its count."""
        return self.pick_variant(lemma, rng.random())

    def cumulative_counts(self, lemma: str) -> tuple[int, ...]:
        """Running totals of `lemma`'s variant counts, in variant order.

        Built on first use and kept, so every draw for a lemma searches the
        same totals; the last one is the lemma's total count.
        """
        cumulative = self._cumulative.get(lemma)
        if cumulative is None:
            variants = self._entries.get(lemma)
            if variants is None:
                raise DictionaryLookupError(lemma)
            cumulative = self._cumulative[lemma] = tuple(accumulate(e.count for e in variants))
        return cumulative

    def pick_variant(self, lemma: str, u: float) -> str:
        """Map a uniform draw u in [0, 1) to a variant of `lemma`.

        Separated from sample_variant so callers that pre-draw one uniform
        per token position get sampling that is independent of dictionary
        coverage elsewhere in the sentence.
        """
        cumulative = self.cumulative_counts(lemma)  # raises for an unknown lemma
        return self._entries[lemma][pick_index(cumulative, u)].variant


def pick_index(cumulative: Sequence[int], u: float) -> int:
    """Index a uniform draw u in [0, 1) selects from running counts.

    That is the first index whose running count exceeds u * total, so each
    index is chosen with probability count / total; the last index when
    rounding carries u * total up to the total.
    """
    index = bisect_right(cumulative, u * cumulative[-1])
    return index if index < len(cumulative) else len(cumulative) - 1


def load_dictionary(path: str | Path) -> VariantDictionary:
    """Load and validate a TSV variant dictionary.

    Duplicate (lemma, variant) lines have their counts summed. Blank lines
    and lines starting with `#` are ignored. Raises ParseError with the
    offending line number for malformed input, and on empty files.
    """
    merged: dict[str, dict[str, int]] = {}
    for lineno, (lemma, variant, count_text) in read_tsv(path, 3):
        if not lemma:
            raise ParseError("empty lemma", path=str(path), line=lineno)
        if not variant:
            raise ParseError("empty variant", path=str(path), line=lineno)
        count = parse_int(count_text, "count", path, lineno)
        if count < 1:
            raise ParseError(f"non-positive count: {count}", path=str(path), line=lineno)
        merged.setdefault(lemma, {})
        merged[lemma][variant] = merged[lemma].get(variant, 0) + count
    if not merged:
        raise ParseError("dictionary file contains no entries", path=str(path))
    entries = {
        lemma: [VariantEntry(variant, count) for variant, count in variants.items()]
        for lemma, variants in merged.items()
    }
    return VariantDictionary(entries)


class ReverseIndex:
    """Variant -> [(lemma, count)] lookup, built from a VariantDictionary."""

    def __init__(self, dictionary: VariantDictionary):
        index: dict[str, list[tuple[str, int]]] = {}
        for lemma in dictionary.lemmas():
            for entry in dictionary.variants(lemma):
                index.setdefault(entry.variant, []).append((lemma, entry.count))
        for variant, lemmas in index.items():
            lemmas.sort(key=lambda pair: (-pair[1], pair[0]))
        self._index = index
        fold: dict[str, list[tuple[str, int]]] = {}
        for variant, lemmas in index.items():
            fold.setdefault(variant.casefold(), []).extend(lemmas)
        for folded in fold.values():
            folded.sort(key=lambda pair: (-pair[1], pair[0]))
        self._fold = fold

    def lookup(self, variant: str) -> list[tuple[str, int]]:
        """Lemmas attested for this exact variant, count-descending."""
        return list(self._index.get(variant, []))

    def lookup_folded(self, variant: str) -> list[tuple[str, int]]:
        """Case-insensitive lookup, merging all casings of the variant."""
        return list(self._fold.get(variant.casefold(), []))

    def items(self) -> Iterable[tuple[str, list[tuple[str, int]]]]:
        return self._index.items()


def build_reverse_index(dictionary: VariantDictionary) -> ReverseIndex:
    """Invert lemma->variant into variant->lemma for normalization lookups."""
    return ReverseIndex(dictionary)
