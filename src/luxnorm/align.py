"""Word-level global sequence alignment for normalization evaluation.

Pairwise and 3-sequence Needleman-Wunsch over token lists. Match columns
are scored with a Levenshtein-based similarity mapped into [-1, 1]; gap
columns cost a fixed penalty. The 3-sequence variant runs a full cubic
dynamic program (sentences are short, so this is cheap) instead of
composing pairwise alignments, which would not yield consistent triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class _GapType:
    """Sentinel for an alignment gap; disjoint from every token string."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "GAP"


GAP = _GapType()


@dataclass(frozen=True)
class ScoringScheme:
    """Column scoring constants.

    A match column scores mismatch_penalty + (match_bonus - mismatch_penalty)
    * similarity, i.e. 2*sim - 1 with the defaults. Any pair involving a gap
    scores gap_penalty.
    """

    match_bonus: float = 1.0
    mismatch_penalty: float = -1.0
    gap_penalty: float = -0.5

    def __post_init__(self) -> None:
        # a positive gap penalty would make all-gap alignments profitable
        if not self.gap_penalty <= 0:
            raise ValueError("gap_penalty must be <= 0")
        if not self.match_bonus > 0:
            raise ValueError("match_bonus must be > 0")
        if not self.mismatch_penalty <= self.match_bonus:
            raise ValueError("mismatch_penalty must be <= match_bonus")


DEFAULT_SCHEME = ScoringScheme()


@dataclass(frozen=True)
class PairwiseAlignment:
    columns: tuple[tuple[object, object], ...]
    score: float

    def row(self, index: int) -> list[str]:
        return [col[index] for col in self.columns if col[index] is not GAP]


@dataclass(frozen=True)
class AlignedTriple:
    """Position-wise aligned (original, predicted, gold) token columns."""

    columns: tuple[tuple[object, object, object], ...]
    score: float

    def row(self, index: int) -> list[str]:
        return [col[index] for col in self.columns if col[index] is not GAP]


def levenshtein(a: str, b: str) -> int:
    """Plain edit distance (insert/delete/substitute, no transpositions)."""
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


def token_similarity(a: str, b: str) -> float:
    """1 - levenshtein/max(len); 1.0 for identical tokens, 0.0 for disjoint."""
    if a == b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


class _PairScorer:
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


def needleman_wunsch(
    a: Sequence[str],
    b: Sequence[str],
    scheme: ScoringScheme = DEFAULT_SCHEME,
) -> PairwiseAlignment:
    """Globally optimal pairwise alignment with deterministic traceback.

    Ties prefer a match column, then a gap in `a`, then a gap in `b`.
    """
    scorer = _PairScorer(scheme)
    gp = scheme.gap_penalty
    n, m = len(a), len(b)
    # moves: 3 = consume both, 2 = consume b (gap in a), 1 = consume a
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
        ai = a[i - 1]
        for j in range(1, m + 1):
            best = above[j - 1] + scorer.score(ai, b[j - 1])
            best_move = 3
            cand = row[j - 1] + gp
            if cand > best:
                best, best_move = cand, 2
            cand = above[j] + gp
            if cand > best:
                best, best_move = cand, 1
            row[j] = best
            move[i][j] = best_move
    columns: list[tuple[object, object]] = []
    i, j = n, m
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
    return PairwiseAlignment(tuple(columns), score[n][m])


# Moves in the 3-sequence program are bitmasks (1 = consume from the first
# sequence, 2 = second, 4 = third), evaluated in tie-breaking preference
# order: all-diagonal, then two-sequence advances, then single advances.


def align_triple(
    original: Sequence[str],
    predicted: Sequence[str],
    gold: Sequence[str],
    scheme: ScoringScheme = DEFAULT_SCHEME,
) -> AlignedTriple:
    """Globally optimal 3-sequence alignment over a DP cube.

    A column scores the sum of its three pairwise scores; a pair with at
    least one gap contributes gap_penalty. Traceback follows the fixed
    move-preference order, so output is deterministic.
    """
    scorer = _PairScorer(scheme)
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
    return AlignedTriple(tuple(columns), score[no * plane + np_ * depth + ng])
