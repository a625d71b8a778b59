"""Pipeline normalization: candidate generation, scoring, and selection.

Candidates for an unknown token come from three routes: reverse lookup in
the variant dictionary, lexicon words within two single-character edits,
and character-n-gram tf-idf cosine similarity. Each candidate form carries
one score component per route plus its frequency, and the components are
combined linearly; known-correct tokens are never touched.

External normalizers plug in through a line protocol: one sentence per
line on stdin, exactly one normalized sentence per line on stdout.
"""

from __future__ import annotations

import heapq
import math
import shlex
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from luxnorm.dictionary import ReverseIndex
from luxnorm.errors import ParseError, ProtocolError, parse_int, read_tsv
from luxnorm.parallel import ordered_map
from luxnorm.tokenizer import (
    apply_case_pattern,
    is_punctuation,
    splice,
    split_clitic,
    tokenize,
)

# a-z plus the accented letters of Luxembourgish orthography, both cases
_LOWER = "abcdefghijklmnopqrstuvwxyzäëéöüâêîôûàèù"
LUX_ALPHABET = _LOWER + _LOWER.upper()

# word-boundary padding for n-gram profiles; cannot occur in real tokens
_PAD_START = "\x02"
_PAD_END = "\x03"


class Lexicon:
    """Known-correct word forms with corpus frequencies."""

    def __init__(self, counts: dict[str, int]):
        for word, count in counts.items():
            if not word:
                raise ValueError("empty lexicon form")
            if count < 1:
                raise ValueError(f"non-positive count for {word!r}")
        self._counts = dict(counts)
        self._fold_counts: dict[str, int] = {}
        for word, count in counts.items():
            key = word.casefold()
            self._fold_counts[key] = self._fold_counts.get(key, 0) + count
        self._max_fold_count = max(self._fold_counts.values()) if counts else 1
        self._trie: dict | None = None

    def deletes_index(self) -> dict:
        """The forms' character trie, built lazily: each node maps a character
        to the next node and holds its form, if any, under the key "". The
        name of the deletes index it replaced stays for the benchmark hook."""
        if self._trie is None:
            root: dict = {}
            for word in self._counts:
                node = root
                for char in word:
                    node = node.setdefault(char, {})
                node[""] = word
            self._trie = root
        return self._trie

    def __getstate__(self) -> dict:
        # The trie nests one dict per character, too deep to pickle for a
        # long form; a pool worker rebuilds it on first use.
        return {**self.__dict__, "_trie": None}

    def __contains__(self, word: str) -> bool:
        return word in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self):
        return iter(self._counts)

    def contains_folded(self, word: str) -> bool:
        return word in self._counts or word.casefold() in self._fold_counts

    def count(self, word: str) -> int:
        return self._counts.get(word, 0)

    def count_folded(self, word: str) -> int:
        """Total count across all casings of `word`."""
        return self._fold_counts.get(word.casefold(), 0)

    def relative_frequency_folded(self, word: str) -> float:
        """Case-insensitive relative frequency in [0, 1].

        Candidate scoring uses this so that a case-restored candidate
        (e.g. a sentence-initial capitalization of a lower-case lexicon
        word) is credited with the word's real frequency.
        """
        return self._fold_counts.get(word.casefold(), 0) / self._max_fold_count


def load_lexicon(path: str | Path) -> Lexicon:
    """Load `word<TAB>count` TSV; blank and `#` lines skipped, duplicates summed."""
    counts: dict[str, int] = {}
    for lineno, (word, count_text) in read_tsv(path, 2):
        count = parse_int(count_text, "count", path, lineno)
        if not word or count < 1:
            raise ParseError("empty form or non-positive count", path=str(path), line=lineno)
        counts[word] = counts.get(word, 0) + count
    if not counts:
        raise ParseError("lexicon file contains no entries", path=str(path))
    return Lexicon(counts)


def _ngrams(word: str, n: int) -> list[str]:
    padded = _PAD_START * (n - 1) + word + _PAD_END * (n - 1)
    return [padded[i : i + n] for i in range(len(padded) - n + 1)]


class NgramIndex:
    """Character n-gram tf-idf profiles with an inverted index for scoring.

    idf uses the smoothed form log((1+N)/(1+df)) + 1, which keeps every
    weight positive, so a word's cosine with itself is exactly 1.
    """

    def __init__(self, lexicon: Lexicon, n: int = 3):
        if n < 1:
            raise ValueError("n-gram size must be >= 1")
        self.n = n
        words = sorted(lexicon)
        df: dict[str, int] = {}
        profiles: list[dict[str, int]] = []
        for word in words:
            tf: dict[str, int] = {}
            for gram in _ngrams(word, n):
                tf[gram] = tf.get(gram, 0) + 1
            profiles.append(tf)
            for gram in tf:
                df[gram] = df.get(gram, 0) + 1
        total = len(words)
        self._idf = {
            gram: math.log((1 + total) / (1 + count)) + 1.0 for gram, count in df.items()
        }
        self._words = words
        self._counts = [lexicon.count(word) for word in words]
        self._norms: list[float] = []
        self._postings: dict[str, list[tuple[int, float]]] = {}
        for word_id, tf in enumerate(profiles):
            sq = 0.0
            for gram, count in tf.items():
                weight = count * self._idf[gram]
                sq += weight * weight
                self._postings.setdefault(gram, []).append((word_id, weight))
            self._norms.append(math.sqrt(sq))

    def vector(self, word: str) -> dict[str, float]:
        """tf-idf profile of an arbitrary word, using the index vocabulary."""
        vec: dict[str, float] = {}
        for gram in _ngrams(word, self.n):
            idf = self._idf.get(gram)
            if idf is not None:
                vec[gram] = vec.get(gram, 0.0) + idf
        return vec

    def rank(self, token: str, k: int) -> list[tuple[str, float]]:
        """Top-k positive-similarity lexicon words for `token`.

        Ties break by lexicon frequency descending, then lexicographically.
        """
        if k <= 0:
            return []
        query = self.vector(token)
        qnorm = math.sqrt(sum(w * w for w in query.values()))
        if qnorm == 0.0:
            return []
        dots: dict[int, float] = {}
        for gram, weight in query.items():
            for word_id, posting_weight in self._postings.get(gram, ()):
                dots[word_id] = dots.get(word_id, 0.0) + weight * posting_weight
        scored = (
            (-dot / (qnorm * self._norms[word_id]), -self._counts[word_id], self._words[word_id])
            for word_id, dot in dots.items()
            if dot > 0.0
        )
        # (-cosine, -count, word) is a total order, so no sort is needed
        return [(word, -cosine) for cosine, _, word in heapq.nsmallest(k, scored)]


def ngram_candidates(token: str, index: NgramIndex, k: int) -> list[tuple[str, float]]:
    """Top-k fuzzy matches by character-n-gram cosine, as (form, cosine)."""
    return index.rank(token, k)


_ALPHABET_SET = frozenset(LUX_ALPHABET)


def _walk(node: dict, token: str, i: int, budget: int, spent: int, found: dict[str, int]) -> None:
    """Record in `found` every form below `node` within `budget` edits of
    `token[i:]`, at `spent` plus its fewest edits.

    The greedy match down the token is a loop; recursion happens only on
    an edit, so it is at most budget + 1 deep. Some edit changes the first
    position where a form leaves the token's path, so edits are tried at
    the nodes of the match: delete or transpose any character, insert or
    substitute an alphabet character, and at budget 2 move `token[i + 2]`
    before `token[i]` after deleting or moving `token[i + 1]`, as edits
    compose freely (`2Ab` -> `2b` -> `b2`, `aa-` -> `a-a` -> `-aa`).
    """
    end = len(token)
    while True:
        if budget:
            head = token[i : i + 1]
            rest, cost = budget - 1, spent + 1
            after = "" if rest else token[i + 1 : i + 2]  # what a last edit must match next
            if head and (rest or after in node):
                _walk(node, token, i + 1, rest, cost, found)  # delete
            for char, child in node.items():
                if char in _ALPHABET_SET and char != head:  # the match covers char == head
                    if rest or head in child:
                        _walk(child, token, i, rest, cost, found)  # insert
                    if head and (rest or after in child):
                        _walk(child, token, i + 1, rest, cost, found)  # substitute
            if end - i > 1:
                child = node.get(token[i + 1])
                if child is not None and token[i + 1] != head and (rest or head in child):
                    _walk(child, head + token[i + 2 :], 0, rest, cost, found)  # transpose
                if rest and end - i > 2:
                    moved = token[i + 2] + head
                    _walk(node, moved + token[i + 3 :], 0, rest - 1, cost + 1, found)
                    _walk(node, moved + token[i + 1] + token[i + 3 :], 0, rest - 1, cost + 1, found)
        if i == end:
            form = node.get("")
            if form is not None and found.get(form, spent + 1) > spent:
                found[form] = spent
            return
        node = node.get(token[i])
        if node is None:
            return
        i += 1


def edit_candidates(token: str, lexicon: Lexicon, max_distance: int = 2) -> dict[str, int]:
    """All lexicon words reachable by <= max_distance single-character edits.

    Single edits are deletions, insertions, substitutions over the
    Luxembourgish alphabet, and adjacent transpositions. Each word maps to
    its smallest distance, in (distance, word) order.

    One walk of the lexicon's trie finds them (Oflazer, Comput. Linguist.
    22(1), 1996), at a cost set by the trie nodes near the token's path.
    """
    if not token:
        raise ValueError("cannot generate candidates for an empty token")
    if max_distance not in (1, 2):
        raise ValueError("max_distance must be 1 or 2")
    found: dict[str, int] = {}
    _walk(lexicon.deletes_index(), token, 0, max_distance, 0, found)
    return dict(sorted(found.items(), key=lambda item: (item[1], item[0])))


@dataclass(frozen=True)
class PipelineConfig:
    """Scoring weights and candidate-generation settings.

    weights are (variant, edit, ngram, frequency).
    """

    weights: tuple[float, float, float, float] = (0.4, 0.2, 0.2, 0.2)
    max_edit_distance: int = 2
    ngram_n: int = 3
    topk: int = 10

    def __post_init__(self) -> None:
        if len(self.weights) != 4 or any(w < 0 for w in self.weights):
            raise ValueError("weights must be four non-negative numbers")
        if self.max_edit_distance not in (1, 2):
            raise ValueError("max_edit_distance must be 1 or 2")
        if not (isinstance(self.ngram_n, int) and self.ngram_n >= 1):
            raise ValueError("ngram_n must be an integer >= 1")
        if not (isinstance(self.topk, int) and self.topk >= 0):
            raise ValueError("topk must be an integer >= 0")


class Pipeline:
    """Token-local normalizer over a reverse variant index and a lexicon."""

    def __init__(
        self,
        reverse_index: ReverseIndex,
        lexicon: Lexicon,
        config: PipelineConfig | None = None,
    ):
        self.config = config or PipelineConfig()
        self.reverse_index = reverse_index
        self.lexicon = lexicon
        self.ngram_index = NgramIndex(lexicon, self.config.ngram_n)
        self._token_cache: dict[str, str] = {}

    def candidates(self, token: str) -> dict[str, list[float]]:
        """Each candidate form for an unknown token mapped to its score
        components [variant, edit, ngram, frequency], 0 where a route misses
        the form; a route that offers a form twice keeps the larger score."""
        entries = self.reverse_index.lookup(token)
        restore_case = not entries
        if restore_case:
            entries = self.reverse_index.lookup_folded(token)
        total = sum(count for _, count in entries)
        edits = edit_candidates(token, self.lexicon, self.config.max_edit_distance)
        routes = (
            [
                (apply_case_pattern(token, lemma) if restore_case else lemma, count / total)
                for lemma, count in entries
            ],
            [(form, 1.0 / (1 + distance)) for form, distance in edits.items()],
            ngram_candidates(token, self.ngram_index, self.config.topk),
        )
        pool: dict[str, list[float]] = {}
        for route, hits in enumerate(routes):
            for form, score in hits:
                components = pool.get(form)
                if components is None:
                    frequency = self.lexicon.relative_frequency_folded(form)
                    components = pool[form] = [0.0, 0.0, 0.0, frequency]
                components[route] = max(components[route], score)
        return pool

    def normalize_token(self, token: str) -> str:
        """Best correction for `token`, or the token itself.

        Lexicon members (exact or case-folded) are left as-is. Otherwise
        the candidate pool is scored with
        w_v*variant_prob + w_e*edit_proximity + w_n*ngram_cosine + w_f*rel_freq
        and ties break by lexicon frequency, then edit distance (read from
        the edit component, 0 for forms off the edit route), then form.
        """
        cached = self._token_cache.get(token)
        if cached is not None:
            return cached
        result = self._normalize_token(token)
        self._token_cache[token] = result
        return result

    def _normalize_token(self, token: str) -> str:
        if self.lexicon.contains_folded(token):
            return token
        pool = self.candidates(token)
        if not pool:
            return token
        wv, we, wn, wf = self.config.weights

        def sort_key(form: str):
            variant, edit, ngram, frequency = pool[form]
            combined = wv * variant + we * edit + wn * ngram + wf * frequency
            return (-combined, -self.lexicon.count_folded(form), -edit, form)

        return min(pool, key=sort_key)

    def normalize_sentence(self, sentence: str) -> str:
        """Normalize token by token; punctuation and clitics are preserved."""
        tokens = tokenize(sentence)
        output: list[str] = []
        for token in tokens:
            if is_punctuation(token):
                output.append(token)
                continue
            prefix, core = split_clitic(token)
            output.append(prefix + self.normalize_token(core))
        return splice(sentence, tokens, output)

    def normalize_lines(self, lines: Sequence[str], workers: int = 1) -> list[str]:
        """Normalize a batch of sentences, optionally across processes.

        The batch's distinct unknown cores are normalized once each, on a
        process pool when workers > 1 (each worker receives the pipeline
        once); their results fill the token cache, from which the lines
        are rebuilt. Output is the same for any worker count.
        """
        cores = {
            split_clitic(token)[1]
            for line in lines
            for token in tokenize(line)
            if not is_punctuation(token)
        }
        types = sorted(
            core
            for core in cores
            if core not in self._token_cache and not self.lexicon.contains_folded(core)
        )
        if types:
            # built before the pool starts: forked workers inherit it, while a
            # pickled pipeline drops it and each spawned worker rebuilds it
            self.lexicon.deletes_index()
            results = ordered_map(_normalize_type, self, types, workers)
            # strict: exhausting the results also shuts the pool down here
            self._token_cache.update(zip(types, results, strict=True))
        return [self.normalize_sentence(line) for line in lines]


def _normalize_type(pipeline: Pipeline, token: str) -> str:
    return pipeline._normalize_token(token)


def run_external_normalizer(command: str | Sequence[str], sentences: Sequence[str]) -> list[str]:
    """Run an external normalizer over a batch via the line protocol.

    Writes one sentence per line (UTF-8, LF) to the child's stdin and
    expects exactly one output line per input line, in order.
    """
    if not sentences:
        return []
    argv = shlex.split(command) if isinstance(command, str) else list(command)
    try:
        completed = subprocess.run(
            argv,
            input="\n".join(sentences) + "\n",
            capture_output=True,
            text=True,
            encoding="utf-8",
        )
    except OSError as exc:
        raise ProtocolError(f"failed to launch normalizer {argv!r}: {exc}") from exc
    if completed.returncode != 0:
        stderr = completed.stderr.strip()
        raise ProtocolError(
            f"normalizer {argv!r} exited with status {completed.returncode}"
            + (f": {stderr}" if stderr else "")
        )
    lines = completed.stdout.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) != len(sentences):
        raise ProtocolError(
            f"normalizer wrote {len(lines)} lines for {len(sentences)} inputs"
        )
    return lines
