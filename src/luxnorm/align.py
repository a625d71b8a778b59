"""Word-level global sequence alignment for normalization evaluation.

Pairwise and 3-sequence Needleman-Wunsch over token lists. Match columns
are scored with a Levenshtein-based similarity mapped into [-1, 1]; gap
columns cost a fixed penalty. The 3-sequence variant runs a full cubic
dynamic program instead of composing pairwise alignments, which would not
yield consistent triples; its time and memory grow with the product of
the three lengths. Each distinct token pair is scored once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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
class Alignment:
    """Position-wise aligned token columns, one entry per input sequence."""

    columns: tuple[tuple[object, ...], ...]
    score: float


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


def _pair_scores(
    seqs: Sequence[Sequence[str]], scheme: ScoringScheme
) -> list[list[list[float]]]:
    """Match-column scores for every pair of sequences.

    One matrix per pair, in (0, 1), (0, 2), (1, 2) order, with one row per
    token of the pair's first sequence. Tokens repeat a lot within
    sentences, so the matrices share one symmetric memo and each distinct
    token pair is scored once.
    """
    span = scheme.match_bonus - scheme.mismatch_penalty
    memo: dict[tuple[str, str], float] = {}
    matrices = []
    for first, second in combinations(seqs, 2):
        matrix = []
        for x in first:
            row = []
            for y in second:
                value = memo.get((x, y))
                if value is None:
                    value = scheme.mismatch_penalty + span * token_similarity(x, y)
                    memo[x, y] = memo[y, x] = value
                row.append(value)
            matrix.append(row)
        matrices.append(matrix)
    return matrices


# Moves are bitmasks over the input sequences: bit d means "consume a token
# of sequence d", and a sequence whose bit is clear gets a gap. Both
# programs try moves in tie-breaking preference order: all-diagonal, then
# two-sequence advances, then single advances.


def _traceback(move: list[int], seqs: Sequence[Sequence[str]]) -> tuple[tuple[object, ...], ...]:
    """Columns of the optimal path, walked back from the last cell.

    `move` is the row-major table of the moves that reached each cell,
    with one axis of length len(seq) + 1 per sequence.
    """
    strides = [1] * len(seqs)
    for d in range(len(seqs) - 2, -1, -1):
        strides[d] = strides[d + 1] * (len(seqs[d + 1]) + 1)
    position = [len(seq) for seq in seqs]
    cell = len(move) - 1
    columns = []
    while cell:
        step = move[cell]
        column = []
        for d, seq in enumerate(seqs):
            if step >> d & 1:
                position[d] -= 1
                cell -= strides[d]
                column.append(seq[position[d]])
            else:
                column.append(GAP)
        columns.append(tuple(column))
    columns.reverse()
    return tuple(columns)


def needleman_wunsch(
    a: Sequence[str],
    b: Sequence[str],
    scheme: ScoringScheme = DEFAULT_SCHEME,
) -> Alignment:
    """Globally optimal pairwise alignment with deterministic traceback.

    Ties prefer a match column, then a gap in `a`, then a gap in `b`.
    """
    (pair,) = _pair_scores((a, b), scheme)
    gp = scheme.gap_penalty
    n, m = len(a), len(b)
    above = [0.0] + [gp * j for j in range(1, m + 1)]
    move = [0] + [2] * m
    for i in range(1, n + 1):
        row = [gp * i]
        move.append(1)
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
            row.append(best)
            move.append(best_move)
        above = row
    return Alignment(_traceback(move, (a, b)), above[m])


def align_triple(
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
    op, og, pg = _pair_scores((original, predicted, gold), scheme)
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
        op_i = op[i - 1] if i else None
        og_i = og[i - 1] if i else None
        base_i = i * plane
        for j in range(np_ + 1):
            pg_j = pg[j - 1] if j else None
            base_ij = base_i + j * depth
            s_op = op_i[j - 1] if i and j else 0.0
            for k in range(ng + 1):
                if not (i or j or k):
                    continue
                s_og = og_i[k - 1] if i and k else 0.0
                s_pg = pg_j[k - 1] if j and k else 0.0
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
    return Alignment(_traceback(move, (original, predicted, gold)), score[-1])
