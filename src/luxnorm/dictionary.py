"""Lemma-to-spelling-variants dictionary.

The resource is a table: each standard written form (lemma) maps to the
non-standard spellings observed for it, each with how often it was used,
`lemma -> {variant: count}`. A lemma's variants keep the order of their
first line in the file; that order and the counts fix which variant each
seeded draw picks. File format is TSV: `lemma<TAB>variant<TAB>count`,
UTF-8; blank lines and `#` comment lines are skipped. Dictionaries are
immutable after loading and safe to share across workers;
`luxnorm.corrupt` draws the variants.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from luxnorm.errors import DictionaryLookupError, ParseError, parse_int, read_tsv
from luxnorm.tokenizer import is_token


class VariantDictionary:
    """Immutable table `lemma -> {variant: count}` with case-folded fallback.

    The table is kept as given, not copied: a caller hands it over and no
    longer changes it. Each row keeps its variants in the order given.
    """

    def __init__(self, entries: dict[str, dict[str, int]]):
        for lemma, variants in entries.items():
            if not is_token(lemma):
                raise ValueError(f"lemma {lemma!r} is not one token")
            if not variants:
                raise ValueError(f"lemma {lemma!r} has no variants")
            for variant, count in variants.items():
                if count < 1:
                    raise ValueError(f"non-positive count for {lemma!r}/{variant!r}")
                if not variant or "\t" in variant or "\n" in variant:
                    raise ValueError(f"invalid variant {variant!r} for lemma {lemma!r}")
        self._entries = entries
        self._totals = {lemma: sum(variants.values()) for lemma, variants in entries.items()}
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

    def __contains__(self, lemma: str) -> bool:
        return lemma in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def lemmas(self) -> Iterable[str]:
        return self._entries.keys()

    def variants(self, lemma: str) -> dict[str, int]:
        """A copy of the lemma's row, `{variant: count}` in first-seen order."""
        try:
            return dict(self._entries[lemma])
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


def load_dictionary(path: str | Path) -> VariantDictionary:
    """Load and validate a TSV variant dictionary.

    Duplicate (lemma, variant) lines have their counts summed. Blank lines
    and lines starting with `#` are ignored. Raises ParseError with the
    offending line number for malformed input, and on empty files.
    """
    merged: dict[str, dict[str, int]] = {}
    for lineno, (lemma, variant, count_text) in read_tsv(path, 3):
        if not is_token(lemma):
            message = f"empty lemma or not one token: {lemma!r}"
            raise ParseError(message, path=str(path), line=lineno)
        if not variant:
            raise ParseError("empty variant", path=str(path), line=lineno)
        count = parse_int(count_text, "count", path, lineno)
        if count < 1:
            raise ParseError(f"non-positive count: {count}", path=str(path), line=lineno)
        row = merged.setdefault(lemma, {})
        row[variant] = row.get(variant, 0) + count
    if not merged:
        raise ParseError("dictionary file contains no entries", path=str(path))
    return VariantDictionary(merged)


class ReverseIndex:
    """Variant -> [(lemma, count)] lookup, built from a VariantDictionary."""

    def __init__(self, dictionary: VariantDictionary):
        index: dict[str, list[tuple[str, int]]] = {}
        for lemma in dictionary.lemmas():
            for variant, count in dictionary.variants(lemma).items():
                index.setdefault(variant, []).append((lemma, count))
        for variant, lemmas in index.items():
            lemmas.sort(key=lambda pair: (-pair[1], pair[0]))
        self._index = index
        fold: dict[str, list[tuple[str, int]]] = {}
        for variant, lemmas in index.items():
            fold.setdefault(variant.casefold(), []).extend(lemmas)
        for key, lemmas in fold.items():
            if len(lemmas) > 1:  # a lemma's counts summed over the casings of the variant
                merged: dict[str, int] = {}
                for lemma, count in lemmas:
                    merged[lemma] = merged.get(lemma, 0) + count
                fold[key] = sorted(merged.items(), key=lambda pair: (-pair[1], pair[0]))
        self._fold = fold

    def lookup(self, variant: str) -> list[tuple[str, int]]:
        """Lemmas attested for this exact variant, count-descending."""
        return list(self._index.get(variant, []))

    def lookup_folded(self, variant: str) -> list[tuple[str, int]]:
        """Case-insensitive lookup, a lemma's counts summed over all casings."""
        return list(self._fold.get(variant.casefold(), []))


def build_reverse_index(dictionary: VariantDictionary) -> ReverseIndex:
    """Invert lemma->variant into variant->lemma for normalization lookups."""
    return ReverseIndex(dictionary)
