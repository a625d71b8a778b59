"""Word-level global sequence alignment for normalization evaluation.

Pairwise and 3-sequence Needleman-Wunsch over token lists. Match columns
are scored with a Levenshtein-based similarity mapped into [-1, 1]; gap
columns cost a fixed penalty. Each distinct token pair is scored once per
call, from bit vectors built once per distinct token. One program fills
the pairwise score rows: the pairwise alignment walks them back, and the
3-sequence variant reads them, filled over the reversed sequences, as
bounds on each pair's suffixes. That variant runs a cubic dynamic program
instead of composing pairwise alignments, which would not yield
consistent triples, but computes only the cells whose exact prefix score
plus those suffix bounds can reach the optimum. So its time follows those
cells, and its memory follows the (i, j) rows that keep one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence


# An alignment gap: unequal to every token, and the same object after pickling or copying
GAP = None


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

    columns: tuple[tuple[str | None, ...], ...]
    score: float


def _match_vectors(pattern: str) -> dict[str, int]:
    """Myers' match vectors: bit i of the entry for c is set where pattern[i] == c."""
    peq: dict[str, int] = {}
    bit = 1
    for char in pattern:
        peq[char] = peq.get(char, 0) | bit
        bit <<= 1
    return peq


def _distance(a: str, b: str, peq: dict[str, int]) -> int:
    """Edit distance of a and a non-empty b no longer than a, given b's
    match vectors.

    Myers' bit-vector algorithm (J. ACM 46(3), 1999), in Hyyrö's form for
    global distance: one Python int per sign holds the vertical deltas of
    a DP column, one bit per character of b, and each character of a
    advances the column by a few integer operations. The distance is
    tracked at the column's last row.
    """
    if len(b) == 1:
        # keep b's character if a has it, else substitute it; delete the rest
        return len(a) - (b in a)
    if peq.keys().isdisjoint(a):
        # no character in common: every column of an alignment costs one
        return len(a)
    last = 1 << (len(b) - 1)
    mask = (last << 1) - 1
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


def levenshtein(a: str, b: str) -> int:
    """Plain edit distance (insert/delete/substitute, no transpositions)."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    return _distance(a, b, _match_vectors(b))


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
    token of the pair's first sequence. Each distinct token's match
    vectors are built once, each distinct token pair is scored once, and
    the rows of a repeated token are one list.
    """
    mismatch = scheme.mismatch_penalty
    span = scheme.match_bonus - mismatch
    tokens = list(dict.fromkeys(token for seq in seqs for token in seq))
    vectors = [_match_vectors(token) for token in tokens]
    # scores[x][y] for every two distinct tokens x and y, either order
    scores: dict[str, dict[str, float]] = {}
    for n, x in enumerate(tokens):
        # 1.0 - 0 / len(x) is 1.0, but x may be empty
        row = scores[x] = {x: mismatch + span * 1.0}
        x_vectors = vectors[n]
        for y, y_vectors in zip(tokens[:n], vectors):
            a, b, b_vectors = (x, y, y_vectors) if len(x) >= len(y) else (y, x, x_vectors)
            distance = _distance(a, b, b_vectors) if b else len(a)
            row[y] = scores[y][x] = mismatch + span * (1.0 - distance / len(a))
    matrices = []
    for first, second in combinations(seqs, 2):
        rows: dict[str, list[float]] = {}
        for x in first:
            if x not in rows:
                rows[x] = list(map(scores[x].__getitem__, second))
        matrices.append([rows[x] for x in first])
    return matrices


# Moves of the 3-sequence program are bitmasks over the input sequences:
# bit d means "consume a token of sequence d", and a sequence whose bit is
# clear gets a gap. The program tries moves in tie-breaking preference
# order: all-diagonal, then two-sequence advances, then single advances.


def _traceback(move: Sequence, seqs: Sequence[Sequence[str]]) -> tuple[tuple[str | None, ...], ...]:
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


def _suffix_rows(pair: Sequence[Sequence[float]], m: int, gp: float) -> list[list[float]]:
    """rows[i][j] is the best pairwise score of the tokens after the first i
    against those after the first j: the `_pair_rows` of the matrix
    reversed in both axes, read back to front."""
    backward = _pair_rows([row[::-1] for row in reversed(pair)], m, gp)
    return [row[::-1] for row in reversed(backward)]


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
    suffixes: Sequence[list[list[float]]],
    lengths: Sequence[int],
    gap_penalty: float,
    cutoff: float,
) -> tuple[float, list[dict[int, bytearray]]]:
    """The 3-sequence program over the cells that stay live: a cell is live
    while its score plus the three pairs' suffix bounds is not below
    `cutoff`. Returns the last cell's score and move[i][j], the moves over
    k of each (i, j) row with a live cell.

    A cell is computed only where a live cell precedes it: each (i, j) row
    covers the k-range its live predecessor rows reach, and continues
    along k while the k - 1 -> k move keeps cells live. A cell that is not
    live scores -inf, so every computed score is a real path's, never
    above the full cube's. Scores are kept for the rows of i - 1 and i
    only.
    """
    op, og, pg = pairs
    rest_op, rest_og, rest_pg = suffixes
    gp2 = 2.0 * gap_penalty
    gp3 = 3.0 * gap_penalty
    no, np_, ng = lengths
    neg_inf = float("-inf")
    # score lists hold cell k at index k and -inf at index -1, for k - 1 = -1
    missing = [neg_inf] * (ng + 2)
    # a trailing 0.0 is the pair score read for k - 1 = -1
    og = [row + [0.0] for row in og]
    pg = [row + [0.0] for row in pg]
    no_pair = [0.0] * (ng + 1)
    move: list[dict[int, bytearray]] = []
    # (i, j) -> (scores, first live k, last live k), for rows with a live cell
    above: dict[int, tuple[list[float], int, int]] = {}
    for i in range(no + 1):
        if i and not above:
            break
        op_i = op[i - 1] if i else None
        og_i = og[i - 1] if i else no_pair
        rest_op_i = rest_op[i]
        rest_og_i = rest_og[i]
        here: dict[int, tuple[list[float], int, int]] = {}
        move.append({})
        # rows reached from row i - 1, then along j while row i stays live
        j_hi = max(above) + 1 if i else 0
        for j in range(min(above) if i else 0, np_ + 1):
            # rows (i-1, j-1), (i-1, j) and (i, j-1)
            diag = above.get(j - 1)
            up = above.get(j)
            left = here.get(j - 1)
            if j > j_hi and left is None:
                break
            reached = [row for row in (diag, up, left) if row]
            score = [neg_inf] * (ng + 2)
            if reached:
                lo = min([row[1] for row in reached])
                end = max([row[2] for row in reached]) + 1
                first = last = -1
            elif i or j:
                continue
            else:
                # the origin; the rest of its row comes from the k - 1 -> k move
                score[0] = 0.0
                lo = end = 1
                first = last = 0
            moves = bytearray(ng + 1)
            diag = diag[0] if diag else missing
            up = up[0] if up else missing
            left = left[0] if left else missing
            pg_j = pg[j - 1] if j else no_pair
            s_op = op_i[j - 1] if i and j else 0.0
            head = rest_op_i[j]
            rest_pg_j = rest_pg[j]
            for k1, k in enumerate(range(lo, ng + 1), lo - 1):
                s_og = og_i[k1]
                s_pg = pg_j[k1]
                best = neg_inf
                best_move = 0
                # Each column always contributes three pair scores; a pair
                # touching a gap contributes gap_penalty. A predecessor
                # outside the cube or not live scores -inf.
                cand = diag[k1] + s_op + s_og + s_pg
                if cand > best:
                    best, best_move = cand, 7
                cand = diag[k] + s_op + gp2
                if cand > best:
                    best, best_move = cand, 3
                cand = up[k1] + s_og + gp2
                if cand > best:
                    best, best_move = cand, 5
                cand = left[k1] + s_pg + gp2
                if cand > best:
                    best, best_move = cand, 6
                cand = up[k] + gp3
                if cand > best:
                    best, best_move = cand, 1
                cand = left[k] + gp3
                if cand > best:
                    best, best_move = cand, 2
                cand = score[k1] + gp3
                if cand > best:
                    best, best_move = cand, 4
                if best + head + rest_og_i[k] + rest_pg_j[k] < cutoff:
                    if k >= end:
                        break
                    continue
                score[k] = best
                moves[k] = best_move
                if first < 0:
                    first = k
                last = k
            if first >= 0:
                here[j] = score, first, last
                move[i][j] = moves
        above = here
    row = above.get(np_)
    return (row[0] if row else missing)[ng], move


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
    one pair after a cell is at most the pair's best alignment of the
    suffixes after the same (i, j), as a column with both of the pair's
    tokens gapped scores gap_penalty <= 0. So a cell's exact prefix score
    plus the three `_suffix_rows` bounds every path through it. A pass
    keeps the cells whose sum reaches a threshold, less a rounding slack.
    If its score reaches the threshold, every optimal-path cell and every
    tied predecessor was kept and scored by the full cube's sums. The
    first threshold is the sum of the three pair optima less a margin of
    match_bonus - mismatch_penalty - 3 * gap_penalty, and each pass that
    misses doubles the margin. The full cube, a cutoff of -inf, runs only
    once doubling no longer lowers the threshold or it is not finite.
    """
    seqs = (original, predicted, gold)
    pairs = op, og, pg = _pair_scores(seqs, scheme)
    lengths = no, np_, ng = [len(seq) for seq in seqs]
    gp = scheme.gap_penalty
    # equal sequences have equal matrices against the third, so equal
    # suffix tables: the corrected sentence often equals the gold one, and
    # an untouched one the original
    rest_op = _suffix_rows(op, np_, gp)
    rest_og = rest_op if gold == predicted else _suffix_rows(og, ng, gp)
    rest_pg = rest_og if predicted == original else _suffix_rows(pg, ng, gp)
    suffixes = rest_op, rest_og, rest_pg
    upper = rest_op[0][0] + rest_og[0][0] + rest_pg[0][0]
    scale = abs(scheme.match_bonus) + abs(scheme.mismatch_penalty) + abs(gp)
    slack = 1e-6 * (1.0 + abs(upper) + scale * (no + np_ + ng))
    margin = scheme.match_bonus - scheme.mismatch_penalty - 3.0 * gp
    threshold = upper - margin
    while True:
        if not math.isfinite(threshold - slack):
            threshold, slack = float("-inf"), 0.0
        value, move = _bounded_cube(pairs, suffixes, lengths, gp, threshold - slack)
        # also ends the full pass, whose NaN score an infinite scheme can make
        if not value < threshold:
            return Alignment(_traceback(move, seqs), value)
        margin *= 2.0
        threshold = upper - margin if upper - margin < threshold else float("-inf")
