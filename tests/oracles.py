"""Independent reference implementations used to verify the real ones.

Everything here favors obviousness over speed: plain recursion and
exhaustive enumeration, no shared code with the package under test
beyond its alignment types, `token_similarity`, the tokenizer's clitic,
casing and splicing helpers, the dictionary's per-lemma lookups, the
lexicon's forms and counts, and the checklist's unit type.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache
from typing import Sequence

from luxnorm.align import DEFAULT_SCHEME, GAP, Alignment, ScoringScheme, token_similarity
from luxnorm.checklist import Setup, TestUnit
from luxnorm.dictionary import VariantDictionary
from luxnorm.normalize import Lexicon
from luxnorm.tokenizer import apply_case_pattern, is_punctuation, splice, split_clitic, tokenize


def reference_tokenize(sentence: str) -> list[str]:
    """Split on whitespace, then peel punctuation off both chunk edges."""
    punct = frozenset('.,!?;:„“"()')
    tokens: list[str] = []
    for chunk in sentence.split():
        leading: list[str] = []
        while chunk and chunk[0] in punct:
            leading.append(chunk[0])
            chunk = chunk[1:]
        trailing: list[str] = []
        while chunk and chunk[-1] in punct:
            trailing.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(leading)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trailing))
    return tokens


def reference_pick_index(counts: Sequence[int], u: float) -> int:
    """Variant index for draw u by walking the counts until the running
    total exceeds u * total; the last index when none does."""
    threshold = u * sum(counts)
    acc = 0
    for index, count in enumerate(counts):
        acc += count
        if threshold < acc:
            return index
    return len(counts) - 1


def reference_corrupt_token(token: str, dictionary: VariantDictionary, u: float) -> str:
    """Replace one token using a pre-drawn uniform, or return it unchanged.

    Punctuation and out-of-dictionary tokens pass through. Lookup strips a
    leading article clitic and tries the exact form before falling back to
    a case-folded match, restoring the original casing pattern afterwards.
    A replacement that does not tokenize back to itself alone is skipped:
    replacements must stay 1:1 at the token level.
    """
    if is_punctuation(token):
        return token
    prefix, core = split_clitic(token)
    key = dictionary.resolve(core)
    if key is None:
        return token
    variants = dictionary.variants(key)
    variant = list(variants)[reference_pick_index(list(variants.values()), u)]
    if key != core:
        variant = apply_case_pattern(core, variant)
    replacement = prefix + variant
    return replacement if reference_tokenize(replacement) == [replacement] else token


def levenshtein_recursive(a: str, b: str) -> int:
    """Textbook recursive edit distance; exponential, short strings only."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    if a[-1] == b[-1]:
        same = levenshtein_recursive(a[:-1], b[:-1])
    else:
        same = levenshtein_recursive(a[:-1], b[:-1]) + 1
    return min(
        same,
        levenshtein_recursive(a[:-1], b) + 1,
        levenshtein_recursive(a, b[:-1]) + 1,
    )


def reference_levenshtein(a: str, b: str) -> int:
    """Edit distance by the row-by-row dynamic program, in quadratic time."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        append = current.append
        for j, cb in enumerate(b, start=1):
            cost = previous[j - 1] if ca == cb else previous[j - 1] + 1
            deletion = previous[j] + 1
            insertion = current[j - 1] + 1
            append(min(cost, deletion, insertion))
        previous = current
    return previous[-1]


def damerau_levenshtein(a: str, b: str) -> int:
    """Unrestricted Damerau-Levenshtein distance (Lowrance-Wagner).

    Counts insertions, deletions, substitutions, and transpositions of
    adjacent characters, with no restriction against editing a substring
    more than once. Distance <= k is exactly "reachable by <= k single
    edits", which is what neighborhood generation produces.
    """
    la, lb = len(a), len(b)
    maxdist = la + lb
    d = [[maxdist] * (lb + 2) for _ in range(la + 2)]
    for i in range(la + 1):
        d[i + 1][1] = i
    for j in range(lb + 1):
        d[1][j + 1] = j
    last_row: dict[str, int] = {}
    for i in range(1, la + 1):
        last_col = 0
        for j in range(1, lb + 1):
            row = last_row.get(b[j - 1], 0)
            col = last_col
            if a[i - 1] == b[j - 1]:
                cost = 0
                last_col = j
            else:
                cost = 1
            d[i + 1][j + 1] = min(
                d[i][j] + cost,
                d[i + 1][j] + 1,
                d[i][j + 1] + 1,
                d[row][col] + (i - row - 1) + 1 + (j - col - 1),
            )
        last_row[a[i - 1]] = i
    return d[la + 1][lb + 1]


def edits1(word: str, alphabet: str) -> set[str]:
    """Every string one edit from `word`.

    Deletions and adjacent transpositions may touch any character;
    insertions and substitutions write characters of `alphabet` only.
    """
    out: set[str] = set()
    for i in range(len(word) + 1):
        left, right = word[:i], word[i:]
        if right:
            out.add(left + right[1:])
        if len(right) > 1:
            out.add(left + right[1] + right[0] + right[2:])
        for ch in alphabet:
            if right:
                out.add(left + ch + right[1:])
            out.add(left + ch + right)
    return out


def neighborhood_distances(token: str, max_distance: int, alphabet: str) -> dict[str, int]:
    """Every string within `max_distance` edits of `token`, at its smallest
    distance, by enumerating the neighborhood ring by ring."""
    found = {token: 0}
    ring = {token}
    for distance in range(1, max_distance + 1):
        ring = set().union(*(edits1(word, alphabet) for word in ring))
        for word in ring:
            found.setdefault(word, distance)
    return found


def _reference_ngrams(word: str, n: int) -> list[str]:
    padded = "\t" * (n - 1) + word + "\n" * (n - 1)
    return [padded[i : i + n] for i in range(len(padded) - n + 1)]


class ReferenceNgramIndex:
    """The n-gram index with a full postings scan: every gram of every word
    is posted, and `rank` scores each word that shares a gram with the
    query before taking the top k."""

    def __init__(self, lexicon: Lexicon, n: int = 3):
        if n < 1:
            raise ValueError("n-gram size must be >= 1")
        self.n = n
        words = sorted(lexicon)
        df: dict[str, int] = {}
        profiles: list[dict[str, int]] = []
        for word in words:
            tf: dict[str, int] = {}
            for gram in _reference_ngrams(word, n):
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
        vec: dict[str, float] = {}
        for gram in _reference_ngrams(word, self.n):
            idf = self._idf.get(gram)
            if idf is not None:
                vec[gram] = vec.get(gram, 0.0) + idf
        return vec

    def rank(self, token: str, k: int) -> list[tuple[str, float]]:
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


def reference_choose(
    token: str, pool: dict[str, list[float]], weights: Sequence[float], lexicon: Lexicon
) -> str:
    """The pipeline's pick for `token` from its candidate pool: the token
    itself if the lexicon holds it in any casing or the pool is empty, else
    the form of highest combined score, ties broken by the lexicon's count
    summed over the form's casings, then the larger edit component, then
    the smaller form."""

    def folded_count(word: str) -> int:
        return sum(lexicon.count(form) for form in lexicon if form.casefold() == word.casefold())

    if folded_count(token) or not pool:
        return token
    wv, we, wn, wf = weights

    def rank(form: str) -> tuple:
        variant, edit, ngram, frequency = pool[form]
        combined = wv * variant + we * edit + wn * ngram + wf * frequency
        return (-combined, -folded_count(form), -edit, form)

    return min(pool, key=rank)


@lru_cache(maxsize=4096)
def _similarity(x: str, y: str) -> float:
    return 1.0 if x == y else 1.0 - levenshtein_recursive(x, y) / max(len(x), len(y))


def _pair_score(x: object, y: object, scheme: ScoringScheme) -> float:
    if x is GAP or y is GAP:
        return scheme.gap_penalty
    sim = _similarity(x, y)
    return scheme.mismatch_penalty + (scheme.match_bonus - scheme.mismatch_penalty) * sim


def enumerate_pair_alignments(a, b):
    """Yield every global alignment of two sequences as column lists."""
    if not a and not b:
        yield []
        return
    if a and b:
        for rest in enumerate_pair_alignments(a[1:], b[1:]):
            yield [(a[0], b[0])] + rest
    if b:
        for rest in enumerate_pair_alignments(a, b[1:]):
            yield [(GAP, b[0])] + rest
    if a:
        for rest in enumerate_pair_alignments(a[1:], b):
            yield [(a[0], GAP)] + rest


def brute_force_pair_value(a, b, scheme: ScoringScheme) -> float:
    return max(
        sum(_pair_score(x, y, scheme) for x, y in cols)
        for cols in enumerate_pair_alignments(tuple(a), tuple(b))
    )


def _column_score(x: object, y: object, z: object, scheme: ScoringScheme) -> float:
    return (
        _pair_score(x, y, scheme)
        + _pair_score(x, z, scheme)
        + _pair_score(y, z, scheme)
    )


def brute_force_triple_value(o, p, g, scheme: ScoringScheme) -> float:
    """Best 3-way alignment value over every alignment. Explodes fast.

    Walks each alignment column by column, carrying its running column
    sum (the same left-to-right sum as scoring a finished column list),
    and keeps the best total; nothing is memoized.
    """
    o, p, g = tuple(o), tuple(p), tuple(g)

    def walk(i: int, j: int, k: int, total: float) -> float:
        if i == len(o) and j == len(p) and k == len(g):
            return total
        best = float("-inf")
        for mo, mp, mg in (
            (1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1),
        ):
            if i + mo > len(o) or j + mp > len(p) or k + mg > len(g):
                continue
            x = o[i] if mo else GAP
            y = p[j] if mp else GAP
            z = g[k] if mg else GAP
            value = walk(i + mo, j + mp, k + mg, total + _column_score(x, y, z, scheme))
            if value > best:
                best = value
        return best

    return walk(0, 0, 0, 0)


def triple_value_oracle(scheme: ScoringScheme):
    """Optimal 3-way alignment value by memoized top-down recursion.

    Returns a function of three token tuples. It takes the same maximum as
    brute_force_triple_value (it maxes over the first column choice and
    recurses on the remainder, with the same column sums) but is fast
    enough to sweep large input spaces: values are memoized on the
    suffixes left to align, so triples that share suffixes share work
    across calls. Free the memo with the returned function's cache_clear().
    """

    @lru_cache(maxsize=None)
    def column(x: object, y: object, z: object) -> float:
        return _column_score(x, y, z, scheme)

    @lru_cache(maxsize=None)
    def value(o: tuple, p: tuple, g: tuple) -> float:
        if not o and not p and not g:
            return 0.0
        best = float("-inf")
        for mo, mp, mg in (
            (1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1),
        ):
            if mo > len(o) or mp > len(p) or mg > len(g):
                continue
            x = o[0] if mo else GAP
            y = p[0] if mp else GAP
            z = g[0] if mg else GAP
            cand = column(x, y, z) + value(o[mo:], p[mp:], g[mg:])
            if cand > best:
                best = cand
        return best

    return value


def kept(alignment: Alignment, side: int) -> list[str]:
    """The tokens of one input sequence, read back from the columns."""
    return [column[side] for column in alignment.columns if column[side] is not GAP]


# Reference aligners: a per-call pair cache, a 2-D pairwise program and one
# hand-written traceback per program, with the package's tie-breaking
# order. They share token_similarity with the package, so they pin the
# programs and their tie-breaking, not the similarity (which
# levenshtein_recursive checks).


class _ReferencePairScorer:
    """Caches per-call pair scores; tokens repeat a lot within sentences."""

    __slots__ = ("_cache", "_match", "_mismatch")

    def __init__(self, scheme: ScoringScheme):
        self._cache: dict[tuple[str, str], float] = {}
        self._match = scheme.match_bonus
        self._mismatch = scheme.mismatch_penalty

    def score(self, a: str, b: str) -> float:
        key = (a, b)
        cached = self._cache.get(key)
        if cached is None:
            span = self._match - self._mismatch
            cached = self._mismatch + span * token_similarity(a, b)
            self._cache[key] = cached
            self._cache[(b, a)] = cached
        return cached


def reference_pair_table(
    pair: Sequence[Sequence[float]], m: int, gap_penalty: float
) -> tuple[list[list[float]], list[list[int]]]:
    """The 2-D pairwise program over an n x m match-score matrix.

    Returns the score table, where score[i][j] is the best score of the
    first i tokens against the first j, and the table of moves: 3 =
    consume both, 2 = consume the second (gap in the first), 1 = consume
    the first. Ties prefer 3, then 2, then 1.
    """
    gp = gap_penalty
    n = len(pair)
    score = [[0.0] * (m + 1) for _ in range(n + 1)]
    move = [[0] * (m + 1) for _ in range(n + 1)]
    for j in range(1, m + 1):
        score[0][j] = gp * j
        move[0][j] = 2
    for i in range(1, n + 1):
        score[i][0] = gp * i
        move[i][0] = 1
    for i in range(1, n + 1):
        row = score[i]
        above = score[i - 1]
        pair_i = pair[i - 1]
        for j in range(1, m + 1):
            best = above[j - 1] + pair_i[j - 1]
            best_move = 3
            cand = row[j - 1] + gp
            if cand > best:
                best, best_move = cand, 2
            cand = above[j] + gp
            if cand > best:
                best, best_move = cand, 1
            row[j] = best
            move[i][j] = best_move
    return score, move


def reference_needleman_wunsch(
    a: Sequence[str],
    b: Sequence[str],
    scheme: ScoringScheme = DEFAULT_SCHEME,
) -> Alignment:
    """Globally optimal pairwise alignment with deterministic traceback.

    Ties prefer a match column, then a gap in `a`, then a gap in `b`.
    """
    scorer = _ReferencePairScorer(scheme)
    pair = [[scorer.score(x, y) for y in b] for x in a]
    score, move = reference_pair_table(pair, len(b), scheme.gap_penalty)
    columns: list[tuple[object, object]] = []
    i, j = len(a), len(b)
    while i or j:
        step = move[i][j]
        if step == 3:
            columns.append((a[i - 1], b[j - 1]))
            i -= 1
            j -= 1
        elif step == 2:
            columns.append((GAP, b[j - 1]))
            j -= 1
        else:
            columns.append((a[i - 1], GAP))
            i -= 1
    columns.reverse()
    return Alignment(tuple(columns), score[-1][-1])


# Moves in the 3-sequence program are bitmasks (1 = consume from the first
# sequence, 2 = second, 4 = third), evaluated in tie-breaking preference
# order: all-diagonal, then two-sequence advances, then single advances.


def reference_align_triple(
    original: Sequence[str],
    predicted: Sequence[str],
    gold: Sequence[str],
    scheme: ScoringScheme = DEFAULT_SCHEME,
) -> Alignment:
    """Globally optimal 3-sequence alignment over a DP cube.

    A column scores the sum of its three pairwise scores; a pair with at
    least one gap contributes gap_penalty. Traceback follows the fixed
    move-preference order, so output is deterministic.
    """
    scorer = _ReferencePairScorer(scheme)
    ps = scorer.score
    gp2 = 2.0 * scheme.gap_penalty
    gp3 = 3.0 * scheme.gap_penalty
    no, np_, ng = len(original), len(predicted), len(gold)
    depth = ng + 1
    plane = (np_ + 1) * depth
    size = (no + 1) * plane
    neg_inf = float("-inf")
    score = [neg_inf] * size
    move = [0] * size
    score[0] = 0.0
    for i in range(no + 1):
        oi = original[i - 1] if i else None
        base_i = i * plane
        for j in range(np_ + 1):
            pj = predicted[j - 1] if j else None
            base_ij = base_i + j * depth
            s_op = ps(oi, pj) if i and j else 0.0
            for k in range(ng + 1):
                if not (i or j or k):
                    continue
                gk = gold[k - 1] if k else None
                s_og = ps(oi, gk) if i and k else 0.0
                s_pg = ps(pj, gk) if j and k else 0.0
                cell = base_ij + k
                best = neg_inf
                best_move = 0
                # Each column always contributes three pair scores; a pair
                # touching a gap contributes gap_penalty.
                if i and j and k:
                    cand = score[cell - plane - depth - 1] + s_op + s_og + s_pg
                    if cand > best:
                        best, best_move = cand, 7
                if i and j:
                    cand = score[cell - plane - depth] + s_op + gp2
                    if cand > best:
                        best, best_move = cand, 3
                if i and k:
                    cand = score[cell - plane - 1] + s_og + gp2
                    if cand > best:
                        best, best_move = cand, 5
                if j and k:
                    cand = score[cell - depth - 1] + s_pg + gp2
                    if cand > best:
                        best, best_move = cand, 6
                if i:
                    cand = score[cell - plane] + gp3
                    if cand > best:
                        best, best_move = cand, 1
                if j:
                    cand = score[cell - depth] + gp3
                    if cand > best:
                        best, best_move = cand, 2
                if k:
                    cand = score[cell - 1] + gp3
                    if cand > best:
                        best, best_move = cand, 4
                score[cell] = best
                move[cell] = best_move
    columns: list[tuple[object, object, object]] = []
    i, j, k = no, np_, ng
    while i or j or k:
        step = move[i * plane + j * depth + k]
        if step & 1:
            x = original[i - 1]
            i -= 1
        else:
            x = GAP
        if step & 2:
            y = predicted[j - 1]
            j -= 1
        else:
            y = GAP
        if step & 4:
            z = gold[k - 1]
            k -= 1
        else:
            z = GAP
        columns.append((x, y, z))
    columns.reverse()
    return Alignment(tuple(columns), score[no * plane + np_ * depth + ng])


def select(units: Sequence[TestUnit], setup: Setup, category: str | None = None) -> list[TestUnit]:
    """The suite units of one setup, of one category if given, in suite order."""
    return [
        u for u in units if u.setup is setup and (category is None or u.category == category)
    ]


def gold_sentence(unit: TestUnit) -> str:
    """The fully standard version of a unit's sentence: a CORRECT unit's
    target token replaced by its expected form, all else as written."""
    if unit.setup is Setup.PRESERVE:
        return unit.sentence
    tokens = tokenize(unit.sentence)
    gold = list(tokens)
    gold[unit.target_index] = unit.expected
    return splice(unit.sentence, tokens, gold)
