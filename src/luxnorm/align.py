"""Word-level global sequence alignment for normalization evaluation.

Pairwise and 3-sequence Needleman-Wunsch over token lists. Match columns
are scored with a Levenshtein-based similarity mapped into [-1, 1]; gap
columns cost a fixed penalty. One program fills the pairwise score rows,
which the pairwise alignment walks back and the 3-sequence variant's
bound sums. That variant runs a cubic dynamic program instead of
composing pairwise alignments, which would not yield consistent triples,
but computes only the cells an optimal path can use, so its time follows
those cells, and its memory follows the (i, j) rows the bound keeps.
Each distinct token pair is scored once per call.
"""

from __future__ import annotations

import math
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
        # with a non-finite score no move beats -inf, and the traceback
        # would never reach the origin
        for name in ("match_bonus", "mismatch_penalty", "gap_penalty"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not math.isfinite(self.match_bonus - self.mismatch_penalty - 3 * self.gap_penalty):
            raise ValueError("match_bonus - mismatch_penalty - 3 * gap_penalty must be finite")
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
    """Plain edit distance (insert/delete/substitute, no transpositions).

    Myers' bit-vector algorithm (J. ACM 46(3), 1999), in Hyyrö's form for
    global distance: one Python int per sign holds the vertical deltas of
    a DP column, one bit per character of the shorter string, and each
    character of the longer string advances the column by a few integer
    operations. The distance is tracked at the column's last row.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        # keep b's character if a has it, else substitute it; delete the rest
        return len(a) - (b in a)
    # bit i of peq[c] is set where b[i] == c
    peq: dict[str, int] = {}
    bit = 1
    for char in b:
        peq[char] = peq.get(char, 0) | bit
        bit <<= 1
    if peq.keys().isdisjoint(a):
        # no character in common: every column of an alignment costs one
        return len(a)
    mask = bit - 1
    last = bit >> 1
    plus, minus, distance = mask, 0, len(b)
    for char in a:
        eq = peq.get(char, 0)
        vertical = eq | minus
        horizontal = (((eq & plus) + plus) ^ plus) | eq
        h_plus = minus | ~(horizontal | plus)
        h_minus = plus & horizontal
        if h_plus & last:
            distance += 1
        elif h_minus & last:
            distance -= 1
        # row 0 of the table is 0, 1, 2, ...: its horizontal delta is +1
        h_plus = h_plus << 1 | 1
        h_minus <<= 1
        plus = (h_minus | ~(vertical | h_plus)) & mask
        minus = h_plus & vertical
    return distance


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


# Moves of the 3-sequence program are bitmasks over the input sequences:
# bit d means "consume a token of sequence d", and a sequence whose bit is
# clear gets a gap. The program tries moves in tie-breaking preference
# order: all-diagonal, then two-sequence advances, then single advances.


def _traceback(move: Sequence, seqs: Sequence[Sequence[str]]) -> tuple[tuple[object, ...], ...]:
    """Columns of the optimal path, walked back from the last cell.

    `move` is indexed by position, one level per sequence:
    move[p0][p1]... is the move that reached the cell at those positions.
    """
    position = [len(seq) for seq in seqs]
    columns = []
    while any(position):
        step = move
        for p in position:
            step = step[p]
        column = []
        for d, seq in enumerate(seqs):
            if step >> d & 1:
                position[d] -= 1
                column.append(seq[position[d]])
            else:
                column.append(GAP)
        columns.append(tuple(column))
    columns.reverse()
    return tuple(columns)


def _pair_rows(pair: Sequence[Sequence[float]], m: int, gp: float) -> list[list[float]]:
    """Pairwise Needleman-Wunsch score rows over a match-score matrix of m
    columns: rows[i][j] is the best score of the first i tokens against j."""
    above = [0.0] + [gp * j for j in range(1, m + 1)]
    rows = [above]
    for i, pair_i in enumerate(pair, 1):
        left = gp * i
        row = [left]
        for diag, up, score in zip(above, above[1:], pair_i):
            best = diag + score
            cand = left + gp
            if cand > best:
                best = cand
            cand = up + gp
            if cand > best:
                best = cand
            row.append(best)
            left = best
        rows.append(row)
        above = row
    return rows


def _pair_bounds(pair: Sequence[Sequence[float]], m: int, gp: float) -> list[list[float]]:
    """Best pairwise score of any alignment through each cell (i, j).

    The forward table scores the prefixes; the table of the matrix
    reversed in both axes scores the suffixes, read back to front.
    """
    forward = _pair_rows(pair, m, gp)
    backward = _pair_rows([row[::-1] for row in reversed(pair)], m, gp)
    return [
        [f + b for f, b in zip(row, reversed(suffix))]
        for row, suffix in zip(forward, reversed(backward))
    ]


def needleman_wunsch(
    a: Sequence[str],
    b: Sequence[str],
    scheme: ScoringScheme = DEFAULT_SCHEME,
) -> Alignment:
    """Globally optimal pairwise alignment with deterministic traceback.

    Fills the score rows with `_pair_rows` and walks back from the last
    cell, taking the first move whose sum equals the cell's score: the
    float `_pair_rows` took its maximum over. Ties prefer a match column,
    then a gap in `a`, then a gap in `b`.
    """
    (pair,) = _pair_scores((a, b), scheme)
    gp = scheme.gap_penalty
    rows = _pair_rows(pair, len(b), gp)
    i, j = len(a), len(b)
    columns = []
    while i or j:
        here = rows[i][j]
        if i and j and rows[i - 1][j - 1] + pair[i - 1][j - 1] == here:
            i, j = i - 1, j - 1
            columns.append((a[i], b[j]))
        elif not i or (j and rows[i][j - 1] + gp == here):
            j -= 1
            columns.append((GAP, b[j]))
        else:
            i -= 1
            columns.append((a[i], GAP))
    columns.reverse()
    return Alignment(tuple(columns), rows[-1][-1])


def _bounded_cube(
    pairs: Sequence[list[list[float]]],
    bounds: Sequence[list[list[float]]],
    lengths: Sequence[int],
    gap_penalty: float,
    cutoff: float,
) -> tuple[float, list[dict[int, bytearray]]]:
    """The 3-sequence program over the cells whose bound is not below
    `cutoff`; returns the last cell's score and move[i][j], the moves over
    k of each (i, j) row kept. A cell skipped, or in a row not kept, scores
    -inf, so every computed score is a real path's, never above the full
    cube's. Scores are kept for the rows of i - 1 and i only.
    """
    op, og, pg = pairs
    u_op, u_og, u_pg = bounds
    top_pg = [max(row) for row in u_pg]
    gp2 = 2.0 * gap_penalty
    gp3 = 3.0 * gap_penalty
    no, np_, ng = lengths
    neg_inf = float("-inf")
    missing = [neg_inf] * (ng + 1)
    move: list[dict[int, bytearray]] = []
    above: dict[int, list[float]] = {}
    ks = range(ng + 1)
    for i in range(no + 1):
        op_i = op[i - 1] if i else None
        og_i = og[i - 1] if i else None
        u_op_i = u_op[i]
        u_og_i = u_og[i]
        top_og_i = max(u_og_i)
        here: dict[int, list[float]] = {}
        move.append({})
        for j in range(np_ + 1):
            # the row's largest cell bound
            if u_op_i[j] + top_og_i + top_pg[j] < cutoff:
                continue
            pg_j = pg[j - 1] if j else None
            s_op = op_i[j - 1] if i and j else 0.0
            head = u_op_i[j]
            u_pg_j = u_pg[j]
            # rows (i-1, j-1), (i-1, j) and (i, j-1)
            diag = above.get(j - 1, missing)
            up = above.get(j, missing)
            left = here.get(j - 1, missing)
            score = here[j] = [neg_inf] * (ng + 1)
            moves = move[i][j] = bytearray(ng + 1)
            for k in [k for k in ks if not head + u_og_i[k] + u_pg_j[k] < cutoff]:
                s_og = og_i[k - 1] if i and k else 0.0
                s_pg = pg_j[k - 1] if j and k else 0.0
                best = neg_inf
                best_move = 0
                # Each column always contributes three pair scores; a pair
                # touching a gap contributes gap_penalty.
                if i and j and k:
                    cand = diag[k - 1] + s_op + s_og + s_pg
                    if cand > best:
                        best, best_move = cand, 7
                if i and j:
                    cand = diag[k] + s_op + gp2
                    if cand > best:
                        best, best_move = cand, 3
                if i and k:
                    cand = up[k - 1] + s_og + gp2
                    if cand > best:
                        best, best_move = cand, 5
                if j and k:
                    cand = left[k - 1] + s_pg + gp2
                    if cand > best:
                        best, best_move = cand, 6
                if i:
                    cand = up[k] + gp3
                    if cand > best:
                        best, best_move = cand, 1
                if j:
                    cand = left[k] + gp3
                    if cand > best:
                        best, best_move = cand, 2
                if k:
                    cand = score[k - 1] + gp3
                    if cand > best:
                        best, best_move = cand, 4
                score[k] = best if i or j or k else 0.0  # the origin
                moves[k] = best_move
        above = here
    return above.get(np_, missing)[ng], move


def align_triple(
    original: Sequence[str],
    predicted: Sequence[str],
    gold: Sequence[str],
    scheme: ScoringScheme = DEFAULT_SCHEME,
) -> Alignment:
    """Globally optimal 3-sequence alignment over a bounded DP cube.

    A column scores the sum of its three pairwise scores; a pair with at
    least one gap contributes gap_penalty. Traceback follows the fixed
    move-preference order, so output is deterministic.

    Columns and score are the full cube's, but only cells an optimal path
    can use are computed (Carrillo and Lipman, 1988). A path's share of
    one pair is at most the pair's best alignment through the same
    (i, j), as a column with both of the pair's tokens gapped scores
    gap_penalty <= 0, so the three `_pair_bounds` sum to a bound on every
    path through a cell. A pass computes the cells whose bound reaches a
    threshold, less a rounding slack. If its score reaches the threshold,
    every optimal-path cell and every tied predecessor was computed, by
    the full cube's sums. Otherwise the score is a real alignment's and
    the next pass takes it as the threshold, which is then exact; a score
    of -inf makes that pass the full cube.
    """
    seqs = (original, predicted, gold)
    pairs = op, og, pg = _pair_scores(seqs, scheme)
    lengths = no, np_, ng = [len(seq) for seq in seqs]
    gp = scheme.gap_penalty
    # equal sequences have equal matrices against the third, so equal
    # bounds: the corrected sentence often equals the gold one, and an
    # untouched one the original
    u_op = _pair_bounds(op, np_, gp)
    u_og = u_op if gold == predicted else _pair_bounds(og, ng, gp)
    u_pg = u_og if predicted == original else _pair_bounds(pg, ng, gp)
    bounds = u_op, u_og, u_pg
    upper = u_op[0][0] + u_og[0][0] + u_pg[0][0]
    scale = abs(scheme.match_bonus) + abs(scheme.mismatch_penalty) + abs(gp)
    slack = 1e-6 * (1.0 + abs(upper) + scale * (no + np_ + ng))
    threshold = upper - (scheme.match_bonus - scheme.mismatch_penalty - 3.0 * gp)
    if not math.isfinite(threshold - slack):
        threshold, slack = float("-inf"), 0.0
    while True:
        value, move = _bounded_cube(pairs, bounds, lengths, gp, threshold - slack)
        # also ends the full pass, whose NaN score an infinite scheme can make
        if not value < threshold:
            return Alignment(_traceback(move, seqs), value)
        threshold = value
