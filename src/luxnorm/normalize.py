"""Pipeline normalization: candidate generation, scoring, and selection.

Candidates for an unknown token come from three routes: reverse lookup in
the variant dictionary, lexicon words within two single-character edits,
and character-n-gram tf-idf cosine similarity. Each candidate form carries
one score component per route plus its frequency, and the components are
combined linearly; known-correct tokens are never touched.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from luxnorm.dictionary import ReverseIndex
from luxnorm.errors import ParseError, parse_int, read_tsv
from luxnorm.parallel import ordered_map
from luxnorm.tokenizer import (
    apply_case_pattern,
    is_punctuation,
    is_token,
    splice,
    split_clitic,
    tokenize,
)

# a-z plus the accented letters of Luxembourgish orthography, both cases
_LOWER = "abcdefghijklmnopqrstuvwxyzäëéöüâêîôûàèù"
LUX_ALPHABET = _LOWER + _LOWER.upper()

# word-boundary padding for n-gram profiles: whitespace, which no token holds
_PAD_START = "\t"
_PAD_END = "\n"

# types per process, the caller included. Measured when 2 pool workers ran beside a caller
# that ran no type: 2 tie with 1 at 1,000 types, win from 1,500 (run-suite lexicon, 2 cores)
NORMALIZE_PER_WORKER = 750


@contextlib.contextmanager
def _collector_paused():
    """Pause automatic garbage collection, restoring the caller's setting: an
    index build makes only live, acyclic objects, which no pass could free.

    A build that succeeds then moves every tracked object to the oldest
    generation (a freeze and unfreeze, two list splices), so that the next
    young collections do not walk the new index twice more before it gets
    there anyway. Not while anything is frozen: unfreezing would release
    the caller's frozen objects too."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        if gc.get_freeze_count() == 0:
            gc.freeze()
            gc.unfreeze()
    finally:
        if enabled:
            gc.enable()


class Lexicon:
    """Known-correct word forms with corpus frequencies.

    A form with a leading article clitic counts as its core, the part of a
    token that `Pipeline.normalize_sentence` looks up."""

    def __init__(self, counts: dict[str, int]):
        self._counts: dict[str, int] = {}
        for word, count in counts.items():
            if not is_token(word):
                raise ValueError(f"lexicon form {word!r} is not one token")
            if count < 1:
                raise ValueError(f"non-positive count for {word!r}")
            if "'" in word:  # only a form with an apostrophe can carry a clitic
                word = split_clitic(word)[1]
            self._counts[word] = self._counts.get(word, 0) + count
        self._fold_counts: dict[str, int] = {}
        for word, count in self._counts.items():
            key = word.casefold()
            self._fold_counts[key] = self._fold_counts.get(key, 0) + count
        self._max_fold_count = max(self._fold_counts.values()) if counts else 1
        self._trie: dict | None = None
        self._tails: dict | None = None

    def deletes_index(self) -> dict:
        """The forms' character trie, built lazily: each node maps a character
        to the next node and holds its form, if any, under the key "". Its
        tails, the merged subtrees of the root's alphabet letters, are built
        with it. The name of the deletes index it replaced stays for the
        benchmark hook."""
        if self._trie is None:
            root: dict = {}
            with _collector_paused():
                for word in self._counts:
                    node = root
                    for char in word:
                        node = node.setdefault(char, {})
                    node[""] = word
                self._tails = _merged([root[char] for char in root if char in _ALPHABET_SET])
            self._trie = root
        return self._trie

    def __getstate__(self) -> dict:
        # The trie and its tails nest one dict per character, too deep to
        # pickle for a long form; a pool worker rebuilds them on first use.
        return {**self.__dict__, "_trie": None, "_tails": None}

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
        if not is_token(word):
            raise ParseError(f"empty form or not one token: {word!r}", path=str(path), line=lineno)
        if count < 1:
            raise ParseError(f"non-positive count: {count}", path=str(path), line=lineno)
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
    weight positive, so a word's cosine with itself is 1, up to rounding.

    For n >= 2 each word holds its start gram (n-1 start pads and its first
    character) and its end gram (its last character and n-1 end pads) once,
    at weight idf, as no word holds a pad. These two grams would be most of
    the postings a query visits, so instead of postings each has a list of
    the words holding it, sorted by norm (then form), in which `rank` can
    stop early.
    """

    @_collector_paused()
    def __init__(self, lexicon: Lexicon, n: int = 3):
        if n < 1:
            raise ValueError("n-gram size must be >= 1")
        self.n = n
        words = sorted(lexicon)
        df: dict[str, int] = {}
        profiles: list[dict[str, int]] = []
        head_grams: list[str | None] = []  # each word's start gram, if n >= 2
        tail_grams: list[str | None] = []  # each word's end gram, if n >= 2
        for word in words:
            grams = _ngrams(word, n)
            tf: dict[str, int] = {}
            for gram in grams:
                tf[gram] = tf.get(gram, 0) + 1
            profiles.append(tf)
            for gram in tf:
                df[gram] = df.get(gram, 0) + 1
            head_grams.append(grams[0] if n > 1 else None)
            tail_grams.append(grams[-1] if n > 1 else None)
        total = len(words)
        self._idf = {
            gram: math.log((1 + total) / (1 + count)) + 1.0 for gram, count in df.items()
        }
        self._words = words
        self._counts = [lexicon.count(word) for word in words]
        self._norms: list[float] = []
        # each gram's postings, flat: word id, weight, word id, weight, ...
        self._postings: dict[str, list[int | float]] = {}
        idf, postings = self._idf, self._postings
        for word_id, (tf, head, tail) in enumerate(zip(profiles, head_grams, tail_grams)):
            sq = 0.0
            for gram, count in tf.items():
                weight = count * idf[gram]
                sq += weight * weight
                if gram != head and gram != tail:
                    postings.setdefault(gram, []).extend((word_id, weight))
            self._norms.append(math.sqrt(sq))
        self._edges: dict[str, list[int]] = {
            gram: [] for gram in {*head_grams, *tail_grams} - {None}
        }
        # each word's start gram list and end gram list, or None
        self._heads = [self._edges.get(gram) for gram in head_grams]
        self._tails = [self._edges.get(gram) for gram in tail_grams]
        # ids are in form order and the sort is stable
        for word_id in sorted(range(total), key=self._norms.__getitem__):
            if self._heads[word_id] is not None:
                self._heads[word_id].append(word_id)
                self._tails[word_id].append(word_id)

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
        The result is bit for bit that of scoring every word sharing a gram
        with the query, found as follows. The words of the query's first
        gram's list (its start gram's, if indexed) and last gram's list
        (its end gram's) need no postings: a dot product starts from s, the
        first gram's term, for a word of the first list, and e, the last
        gram's term, is added last for a word of the second, so every dot
        sums its terms in query order. The token must hold no whitespace,
        so that no start or end gram lies inside it.

        1. The postings of every query gram are walked.
        2. The first list, then the second, is scanned in norm order for
           words the walk missed, whose dot is at most top = s + e in the
           first list and is e in the second. A scan stops at the first
           word whose bound -top / (qnorm * norm) is strictly above the
           k-th kept -cosine: no later word, of no smaller norm, can beat
           it. An equal bound goes on, as a word of that cosine can still
           win on count (the threshold algorithm of Fagin, Lotem and Naor,
           PODS 2001, over a fixed order).

        A word of the first list that the first scan never reached cannot
        enter through the second: met there, it stops the scan, as its
        bound with top = e is at least its first-scan bound, which was
        above the k-th kept -cosine, and the k-th kept -cosine never grows.
        """
        if any(map(str.isspace, token)):
            raise ValueError(f"n-gram query {token!r} holds whitespace")
        if k <= 0:
            return []
        query = self.vector(token)
        qnorm = math.sqrt(sum(w * w for w in query.values()))
        if qnorm == 0.0:
            return []
        grams = list(query)
        first, last = grams[0], grams[-1]
        starts = self._edges.get(first, ())
        ends = self._edges.get(last, ()) if len(grams) > 1 else ()
        s = query[first] * self._idf[first]
        e = query[last] * self._idf[last] if ends else 0.0
        heads, tails = self._heads, self._tails
        dots: dict[int, float] = {}
        for gram, weight in query.items():
            flat = iter(self._postings.get(gram, ()))
            for word_id, posting_weight in zip(flat, flat):
                dot = dots.get(word_id)
                if dot is None:
                    dot = s if heads[word_id] is starts else 0.0
                dots[word_id] = dot + weight * posting_weight
        norms, counts, words = self._norms, self._counts, self._words
        # the best (-cosine, -count, word) so far; every weight is positive,
        # so is every dot
        kept: list[tuple[float, int, str]] = []
        for word_id, dot in dots.items():
            if tails[word_id] is ends:
                dot += e
            score = -dot / (qnorm * norms[word_id])
            if len(kept) < k or score <= kept[-1][0]:
                _keep(kept, k, (score, -counts[word_id], words[word_id]))
        for scan, top in ((starts, s + e), (ends, e)):
            for word_id in scan:
                if word_id in dots:
                    continue
                scale = qnorm * norms[word_id]
                if len(kept) == k and -top / scale > kept[-1][0]:
                    break
                dot = top if scan is ends or tails[word_id] is ends else s
                dots[word_id] = dot  # scored: the second scan skips it
                _keep(kept, k, (-dot / scale, -counts[word_id], words[word_id]))
        return [(word, -score) for score, _, word in kept]


def _keep(kept: list, k: int, item: tuple) -> None:
    """Add `item` to `kept`, the sorted k smallest items offered so far."""
    if len(kept) < k:
        bisect.insort(kept, item)
    elif item < kept[-1]:
        kept.pop()
        bisect.insort(kept, item)


def ngram_candidates(token: str, index: NgramIndex, k: int) -> list[tuple[str, float]]:
    """Top-k fuzzy matches by character-n-gram cosine, as (form, cosine)."""
    return index.rank(token, k)


_ALPHABET_SET = frozenset(LUX_ALPHABET)


def _merged(nodes: list[dict]) -> dict:
    """The union of the tries `nodes`: a path only one of them has keeps
    its node, and a path two or more share is a new dict, holding the tuple
    of their forms, if any, under "". A stack, not recursion, walks the
    shared paths, which can be as deep as the longest form."""
    union: dict = {}
    stack = [(union, nodes)]
    while stack:
        target, group = stack.pop()
        children: dict[str, list[dict]] = {}
        forms = []
        for node in group:
            for char, child in node.items():
                if char:
                    children.setdefault(char, []).append(child)
                else:
                    forms.append(child)
        if forms:
            target[""] = tuple(forms)
        for char, shared in children.items():
            if len(shared) == 1:
                target[char] = shared[0]
            else:
                target[char] = {}
                stack.append((target[char], shared))
    return union


def _walk(
    node: dict, token: str, i: int, budget: int, found: dict[str, int], root: dict, tails: dict
) -> None:
    """Record in `found` every form below `node` within `budget` edits of
    `token[i:]`, at the most budget any of its walks has left.

    The greedy match down the token is a loop; recursion happens only on
    an edit, so it is at most budget + 1 deep. Some edit changes the first
    position where a form leaves the token's path, so edits are tried at
    the nodes of the match: delete or transpose any character, insert or
    substitute an alphabet character, and at budget 2 move `token[i + 2]`
    before `token[i]` after deleting or moving `token[i + 1]`, as edits
    compose freely (`2Ab` -> `2b` -> `b2`, `aa-` -> `a-a` -> `-aa`).

    At `root`, an insert or substitute walks `tails`, the merged subtrees
    of every alphabet letter, once, not each letter's subtree. That takes
    in the letter of the match too, where the edit finds nothing the match
    does not find with more budget left.
    """
    end = len(token)
    while True:
        if budget:
            head = token[i : i + 1]
            rest = budget - 1
            after = "" if rest else token[i + 1 : i + 2]  # what a last edit must match next
            if head and (rest or after in node):
                _walk(node, token, i + 1, rest, found, root, tails)  # delete
            if node is root:
                if rest or head in tails:
                    _walk(tails, token, i, rest, found, root, tails)  # insert
                if head and (rest or after in tails):
                    _walk(tails, token, i + 1, rest, found, root, tails)  # substitute
            else:
                for char, child in node.items():
                    if char in _ALPHABET_SET and char != head:  # the match covers char == head
                        if rest or head in child:
                            _walk(child, token, i, rest, found, root, tails)  # insert
                        if head and (rest or after in child):
                            _walk(child, token, i + 1, rest, found, root, tails)  # substitute
            if end - i > 1:
                child = node.get(token[i + 1])
                if child is not None and token[i + 1] != head and (rest or head in child):
                    _walk(child, head + token[i + 2 :], 0, rest, found, root, tails)  # transpose
                if rest and end - i > 2:
                    moved = token[i + 2] + head
                    for front in (moved, moved + token[i + 1]):
                        _walk(node, front + token[i + 3 :], 0, rest - 1, found, root, tails)
        if i == end:
            forms = node.get("")
            if forms is not None:
                for form in (forms,) if type(forms) is str else forms:
                    if found.get(form, -1) < budget:
                        found[form] = budget
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
    An edit that writes the first letter walks the trie's tails, the merged
    subtrees of the root's letters, so it leaves the root once, as in the
    forward-backward method of Mihov and Schulz (Comput. Linguist. 30(4),
    2004), here at position 0 only.
    """
    if not token:
        raise ValueError("cannot generate candidates for an empty token")
    if max_distance not in (1, 2):
        raise ValueError("max_distance must be 1 or 2")
    found: dict[str, int] = {}
    root = lexicon.deletes_index()
    _walk(root, token, 0, max_distance, found, root, lexicon._tails)
    order = sorted(found, key=lambda form: (-found[form], form))  # fewest edits first
    return {form: max_distance - found[form] for form in order}


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
        if len(self.weights) != 4 or not all(0 <= w < math.inf for w in self.weights):
            raise ValueError("weights must be four finite non-negative numbers")
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
        frequency = self.lexicon.relative_frequency_folded
        for route, hits in enumerate(routes):
            for form, score in hits:
                components = pool.get(form)
                if components is None:
                    components = pool[form] = [0.0, 0.0, 0.0, frequency(form)]
                if score > components[route]:
                    components[route] = score
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
            return (-combined, -frequency, -edit, form)

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

        The batch's distinct unknown cores are normalized once each, on up
        to `workers` processes, the caller included, one per
        NORMALIZE_PER_WORKER types (each pool process receives the pipeline
        once), or in process when the batch is too small for two; their
        results fill the token cache, from which the lines are rebuilt.
        Output is the same for any worker count.
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
            # built here, so when a pool runs, its forked workers inherit
            # the trie and its tails, while a pickled pipeline drops both
            # and each spawned worker rebuilds them
            self.lexicon.deletes_index()
            results = ordered_map(
                Pipeline._normalize_token, self, types, workers, NORMALIZE_PER_WORKER
            )
            # strict: exhausting the results also shuts the pool down here
            self._token_cache.update(zip(types, results, strict=True))
        return [self.normalize_sentence(line) for line in lines]
