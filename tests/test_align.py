from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from luxnorm.align import (
    GAP,
    ScoringScheme,
    _pair_rows,
    _pair_scores,
    align_triple,
    levenshtein,
    needleman_wunsch,
    token_similarity,
)
from conftest import run_python
from oracles import (
    brute_force_pair_value,
    brute_force_triple_value,
    kept,
    levenshtein_recursive,
    reference_align_triple,
    reference_levenshtein,
    reference_needleman_wunsch,
    reference_pair_table,
)

SCHEME = ScoringScheme()

tokens = st.text(alphabet="abë", min_size=1, max_size=4)
token_lists = st.lists(tokens, max_size=4)


@st.composite
def accepted_schemes(draw) -> ScoringScheme:
    """Any scheme the constructor accepts, with magnitudes up to 1e3."""
    match_bonus = draw(st.floats(1e-3, 1e3))
    mismatch_penalty = draw(st.floats(-1e3, match_bonus))
    return ScoringScheme(match_bonus, mismatch_penalty, draw(st.floats(-1e3, 0.0)))


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ("", "abc", 3),
            ("x", "x", 0),
            ("kitten", "sitting", 3),
            ("abc", "", 3),
            ("", "", 0),
            ("flaw", "lawn", 2),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert levenshtein(a, b) == expected

    def test_matches_recursive_oracle_on_random_pairs(self):
        rng = random.Random(7)
        for _ in range(200):
            a = "".join(rng.choice("abcë") for _ in range(rng.randint(0, 6)))
            b = "".join(rng.choice("abcë") for _ in range(rng.randint(0, 6)))
            assert levenshtein(a, b) == levenshtein_recursive(a, b)

    @given(st.text(alphabet="abc", max_size=6), st.text(alphabet="abc", max_size=6))
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    # a precomposed ë, a bare combining diaeresis and an astral character
    # each count as one code point
    @given(
        st.text(alphabet="aeë\u0308\U0001f600", max_size=80),
        st.text(alphabet="aeë\u0308\U0001f600", max_size=80),
    )
    @settings(max_examples=300, deadline=None)
    @example("e\u0308", "ë")
    @example("a" * 64, "a" * 63 + "\U0001f600")
    @example("ë" * 80, "")
    def test_matches_row_program(self, a, b):
        assert levenshtein(a, b) == reference_levenshtein(a, b)


class TestTokenSimilarity:
    def test_identical(self):
        assert token_similarity("Haus", "Haus") == 1.0

    def test_fully_distinct(self):
        assert token_similarity("ab", "cd") == 0.0

    def test_one_insertion(self):
        # lengths 6 and 7, one insertion apart
        assert token_similarity("Bischt", "Biischt") == pytest.approx(1 - 1 / 7)

    @given(tokens, tokens)
    def test_range_and_symmetry(self, a, b):
        sim = token_similarity(a, b)
        assert 0.0 <= sim <= 1.0
        assert sim == token_similarity(b, a)

    # every distinct token pair is scored once, from match vectors built
    # once per token, and must give the float token_similarity gives
    @given(
        st.lists(st.text(alphabet="abcë", max_size=9), max_size=6),
        st.lists(st.text(alphabet="abcë", max_size=9), max_size=6),
        st.lists(st.text(alphabet="abcë", max_size=9), max_size=6),
        accepted_schemes(),
    )
    @settings(max_examples=200, deadline=None)
    @example(["a", "b"], ["ab", "b", "ë"], ["a"], SCHEME)  # one-character tokens
    @example(["abc"], ["ë", "ëë"], ["cab", "bbb"], SCHEME)  # disjoint tokens
    @example(["ab", "ab", "b"], ["b", "ab", "b"], ["ab", "ab"], SCHEME)  # repeated tokens
    @example(["abc", "ca"], ["abc", "ca"], ["cab"], SCHEME)  # two equal sequences
    # mismatch_penalty == match_bonus, and an empty token
    @example(["ab", "b"], ["ba", "bb"], ["a", ""], ScoringScheme(2.0, 2.0, -0.5))
    def test_pair_scores_are_token_similarity(self, o, p, g, scheme):
        span = scheme.match_bonus - scheme.mismatch_penalty
        want = [
            [[repr(scheme.mismatch_penalty + span * token_similarity(x, y)) for y in second]
             for x in first]
            for first, second in ((o, p), (o, g), (p, g))
        ]
        got = _pair_scores((o, p, g), scheme)
        assert [[list(map(repr, row)) for row in matrix] for matrix in got] == want


class TestNeedlemanWunsch:
    def test_identical_sequences(self):
        result = needleman_wunsch(["a", "b"], ["a", "b"], SCHEME)
        assert result.columns == (("a", "a"), ("b", "b"))
        assert result.score == 2.0

    def test_empty_against_one(self):
        result = needleman_wunsch([], ["a"], SCHEME)
        assert result.columns == ((GAP, "a"),)
        assert result.score == -0.5

    def test_gap_placed_at_missing_token(self):
        result = needleman_wunsch(["a", "b", "c"], ["a", "c"], SCHEME)
        assert result.columns == (("a", "a"), ("b", GAP), ("c", "c"))

    def test_rows_reproduce_inputs(self):
        a = ["x", "yy", "z"]
        b = ["yy", "z", "w"]
        result = needleman_wunsch(a, b, SCHEME)
        assert kept(result, 0) == a
        assert kept(result, 1) == b

    @given(token_lists, token_lists)
    @settings(max_examples=60, deadline=None)
    def test_optimal_value_matches_enumeration(self, a, b):
        got = needleman_wunsch(a, b, SCHEME).score
        want = brute_force_pair_value(a, b, SCHEME)
        assert got == pytest.approx(want, abs=1e-9)

    @given(token_lists, token_lists)
    @settings(max_examples=40, deadline=None)
    def test_value_symmetry(self, a, b):
        assert needleman_wunsch(a, b, SCHEME).score == needleman_wunsch(b, a, SCHEME).score


class TestAlignTriple:
    def test_identical_sequences_all_diagonal(self):
        seq = ["a", "b", "c"]
        result = align_triple(seq, seq, seq, SCHEME)
        assert result.columns == tuple((t, t, t) for t in seq)
        assert result.score == 9.0

    @given(st.lists(tokens, max_size=8), accepted_schemes())
    @settings(max_examples=60, deadline=None)
    @example(["a", "b", "a"], ScoringScheme(gap_penalty=0.0))
    @example(["a", "b", "a"], ScoringScheme(mismatch_penalty=1.0))
    @example(["ab", "b", "ab", "ë"], ScoringScheme(mismatch_penalty=1.0, gap_penalty=0.0))
    def test_identical_triples_align_diagonally(self, seq, scheme):
        result = align_triple(seq, seq, seq, scheme)
        assert len(result.columns) == len(seq)
        assert result.columns == tuple((t, t, t) for t in seq)

    def test_empty_middle_sequence(self):
        result = align_triple(["a"], [], ["a"], SCHEME)
        assert result.columns == (("a", GAP, "a"),)

    def test_no_all_gap_columns(self):
        result = align_triple(["a", "b"], ["b"], ["a"], SCHEME)
        assert all(col != (GAP, GAP, GAP) for col in result.columns)

    def test_rows_reproduce_inputs(self):
        o = ["a", "b", "c", "d"]
        p = ["a", "c", "d"]
        g = ["a", "b", "d"]
        result = align_triple(o, p, g, SCHEME)
        assert kept(result, 0) == o
        assert kept(result, 1) == p
        assert kept(result, 2) == g

    def test_equal_identical_triples_have_no_gaps(self):
        seq = ["aa", "b", "aa", "c"]
        result = align_triple(seq, seq, seq, SCHEME)
        assert len(result.columns) == len(seq)
        assert not any(GAP in col for col in result.columns)

    def test_reported_score_matches_column_sum(self):
        o = ["ab", "b"]
        p = ["a"]
        g = ["ab", "c", "b"]
        result = align_triple(o, p, g, SCHEME)
        total = 0.0
        for x, y, z in result.columns:
            for u, v in ((x, y), (x, z), (y, z)):
                if u is GAP or v is GAP:
                    total += SCHEME.gap_penalty
                else:
                    total += 2 * token_similarity(u, v) - 1
        assert result.score == pytest.approx(total, abs=1e-9)

    def test_exhaustive_tiny_triples_match_enumeration(self):
        # Every triple over a 2-token alphabet with lengths <= 2; the
        # full exhaustive sweep at lengths <= 4 runs in the acceptance suite.
        seqs = []
        for la in range(3):
            for combo in range(2**la):
                seqs.append(tuple("ab"[(combo >> i) & 1] for i in range(la)))
        for o in seqs:
            for p in seqs:
                for g in seqs:
                    got = align_triple(o, p, g, SCHEME).score
                    want = brute_force_triple_value(o, p, g, SCHEME)
                    assert got == pytest.approx(want, abs=1e-9), (o, p, g)

    @given(token_lists, token_lists, token_lists)
    @settings(max_examples=25, deadline=None)
    def test_random_triples_match_enumeration(self, o, p, g):
        got = align_triple(o, p, g, SCHEME).score
        want = brute_force_triple_value(o, p, g, SCHEME)
        assert got == pytest.approx(want, abs=1e-9)

    @given(token_lists, token_lists, token_lists)
    @settings(max_examples=30, deadline=None)
    def test_gap_deletion_round_trip(self, o, p, g):
        result = align_triple(o, p, g, SCHEME)
        assert kept(result, 0) == list(o)
        assert kept(result, 1) == list(p)
        assert kept(result, 2) == list(g)
        assert all(col != (GAP, GAP, GAP) for col in result.columns)


@st.composite
def noisy_triples(draw) -> tuple[list[str], list[str], list[str]]:
    """A gold list and two noisy copies of it (drops, swaps, insertions),
    so the three are related and the bounded cube skips most cells."""
    word = st.sampled_from(
        draw(st.sampled_from([["a"], ["a", "b"], ["a", "ab", "b", "ë"], ["Haus", "haus", "an"]]))
    )
    size = draw(st.integers(0, 25))
    gold = draw(st.lists(word, min_size=size, max_size=size))

    def copy() -> list[str]:
        out = list(gold)
        for _ in range(draw(st.integers(0, 6))):
            at = draw(st.integers(0, len(out)))
            edit = draw(st.sampled_from(["drop", "swap", "insert"]))
            if edit == "insert":
                out.insert(at, draw(word))
            elif at < len(out) - (edit == "swap"):
                if edit == "drop":
                    del out[at]
                else:
                    out[at], out[at + 1] = out[at + 1], out[at]
        return out

    return copy(), copy(), gold


class TestMatchesReference:
    """Columns and score equal the reference aligners', ties included."""

    @given(st.lists(tokens, max_size=8), st.lists(tokens, max_size=8), accepted_schemes())
    @settings(max_examples=200, deadline=None)
    @example([], [], SCHEME)
    @example([], ["a", "b"], SCHEME)
    @example(["a", "b", "a"], ["b", "a"], ScoringScheme(gap_penalty=0.0))
    @example(["ab", "b", "ë"], ["b", "ab"], ScoringScheme(mismatch_penalty=1.0))
    # the walk back matches scores with ==: rows that reach +inf or -inf,
    # and ties between every move
    @example(["a"] * 5, ["a"] * 4, ScoringScheme(5e307, 0.0, -3e307))
    @example(["a", "b"], ["b", "a", "b", "a", "ë", "a"], ScoringScheme(1.0, -1.0, -5e307))
    @example(["ab", "a", "b", "ab"], ["a", "ab", "ab"], ScoringScheme(2.0, 2.0, 0.0))
    def test_needleman_wunsch(self, a, b, scheme):
        assert needleman_wunsch(a, b, scheme) == reference_needleman_wunsch(a, b, scheme)

    @given(
        st.lists(tokens, max_size=8),
        st.lists(tokens, max_size=8),
        st.lists(tokens, max_size=8),
        accepted_schemes(),
    )
    @settings(max_examples=200, deadline=None)
    @example([], [], [], SCHEME)
    @example(["a"], [], ["b", "a"], SCHEME)
    @example(["a", "b", "a"], ["b"], ["a", "a"], ScoringScheme(gap_penalty=0.0))
    @example(["ab", "b"], ["a", "ab", "ë"], ["b"], ScoringScheme(mismatch_penalty=1.0))
    @example(["ab", "b"], ["b", "a"], ["ë"], ScoringScheme(mismatch_penalty=1.0, gap_penalty=0.0))
    def test_align_triple(self, o, p, g, scheme):
        assert align_triple(o, p, g, scheme) == reference_align_triple(o, p, g, scheme)

    # one-token alphabets make every cell a tie
    @given(noisy_triples(), accepted_schemes())
    @settings(max_examples=150, deadline=None)
    @example((["a"] * 7, ["a"] * 9, ["a"] * 8), SCHEME)
    @example((["a"] * 12, ["a"] * 3, ["a"] * 12), ScoringScheme(gap_penalty=0.0))
    @example((["a"] * 5, ["a"] * 6, ["a"] * 4), ScoringScheme(mismatch_penalty=1.0))
    @example((["a"] * 6, [], ["a"] * 6), ScoringScheme(mismatch_penalty=1.0, gap_penalty=0.0))
    # the first bounded pass misses the optimum, so the second pass decides
    @example(
        (list("aaaabbabbbbb"), list("aaabbbbbabbbbabbbbbaa"), list("aaabbbbbbabbbbbbaaa")),
        ScoringScheme(2.0, 0.5, -0.1),
    )
    def test_align_triple_on_related_lists(self, triple, scheme):
        got = align_triple(*triple, scheme)
        want = reference_align_triple(*triple, scheme)
        assert got == want
        assert repr(got.score) == repr(want.score)

    # two equal sequences have equal matrices against the third, and
    # align_triple computes their bound tables once
    @given(noisy_triples(), st.sampled_from(["gold", "original", "both"]), accepted_schemes())
    @settings(max_examples=100, deadline=None)
    @example((["a", "b"], ["b", "a"], ["a", "b"]), "gold", SCHEME)
    @example((["a", "b"], ["b"], ["b", "a"]), "original", ScoringScheme(gap_penalty=0.0))
    def test_align_triple_with_equal_sequences(self, triple, equal_to, scheme):
        original, predicted, gold = triple
        if equal_to == "gold":
            predicted = list(gold)
        elif equal_to == "original":
            predicted = list(original)
        else:
            original, predicted = list(gold), list(gold)
        got = align_triple(original, predicted, gold, scheme)
        want = reference_align_triple(original, predicted, gold, scheme)
        assert got == want
        assert repr(got.score) == repr(want.score)


@given(
    st.integers(0, 6).flatmap(
        lambda m: st.lists(st.lists(st.floats(-3.0, 1.0), min_size=m, max_size=m), max_size=6)
    ),
    st.floats(-2.0, 0.0),
)
def test_bound_rows_are_the_table_rows(pair, gap_penalty):
    # the pairwise rows are the reference table's, to the last bit
    m = len(pair[0]) if pair else 0
    rows, _ = reference_pair_table(pair, m, gap_penalty)
    assert [list(map(repr, row)) for row in _pair_rows(pair, m, gap_penalty)] == [
        list(map(repr, row)) for row in rows
    ]


def test_related_long_triple_is_fast():
    rng = random.Random(11)
    words = ["".join(rng.choices("abcdeëfghi", k=rng.randint(1, 8))) for _ in range(60)]
    gold = [rng.choice(words) for _ in range(200)]

    def noisy() -> list[str]:
        out = []
        for token in gold:
            roll = rng.random()
            if roll < 0.05:
                continue
            out.append(rng.choice(words) if roll < 0.15 else token)
            if roll > 0.95:
                out.append(rng.choice(words))
        return out

    original, predicted = noisy(), noisy()
    start = time.perf_counter()
    result = align_triple(original, predicted, gold, SCHEME)
    assert time.perf_counter() - start < 3.0
    assert [kept(result, side) for side in range(3)] == [original, predicted, gold]


# The child's own peak RSS: ru_maxrss would carry over exec, so it would
# start at this process's peak.
_ALIGN_PASSES_AND_PEAK = """
import json, re, sys
import luxnorm.align as align
passes = []
cube = align._bounded_cube
align._bounded_cube = lambda *args: passes.append(args) or cube(*args)
align.align_triple(*json.loads(sys.argv[1]))
full = sum(args[-1] == float("-inf") for args in passes)
with open("/proc/self/status") as status:
    print(len(passes), full, int(re.search(r"VmHWM:\\s*(\\d+) kB", status.read())[1]) // 1024)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("related, length, passes, peak_mb", [
    (True, 300, 1, 150),  # tables over the full cube would take about 410 MB
    # the margin doubles after each pass that misses the optimum; the full
    # cube would take 71 MB at 100 tokens
    (False, 60, 4, 40),
    (False, 100, 5, 40),
])
def test_alignment_memory_follows_rows_kept(related, length, passes, peak_mb):
    rng = random.Random(11)
    words = ["".join(rng.choices("abcdeëfghi", k=rng.randint(1, 8))) for _ in range(60)]
    gold = [rng.choice(words) for _ in range(length)]

    def side() -> list[str]:
        if not related:
            return [rng.choice(words) for _ in gold]
        return [rng.choice(words) if rng.random() < 0.1 else token
                for token in gold if rng.random() >= 0.05]

    triple = json.dumps([side(), side(), gold])
    result = run_python(["-c", _ALIGN_PASSES_AND_PEAK, triple])
    assert result.returncode == 0, result.stderr
    got_passes, full_passes, got_peak_mb = map(int, result.stdout.split())
    assert got_passes == passes
    assert full_passes == 0
    assert got_peak_mb < peak_mb


def test_scheme_rejects_gap_penalty_above_match():
    for kwargs in (
        {"match_bonus": 0.5, "gap_penalty": 0.6},
        {"gap_penalty": 0.9},
        {"mismatch_penalty": 2.0},
        {"match_bonus": 0.0, "gap_penalty": -0.5},
    ):
        with pytest.raises(ValueError):
            ScoringScheme(**kwargs)


_ALIGN_WITH_SCHEME = """
import json, sys
from luxnorm.align import ScoringScheme, align_triple
try:
    scheme = ScoringScheme(*json.loads(sys.argv[1]))
except ValueError:
    sys.exit(0)
align_triple(["a", "b"], ["a"], ["b", "c"], scheme)
sys.exit(1)
"""


@pytest.mark.parametrize("values", [
    (1.0, -1.0, float("-inf")),
    (1.0, float("-inf"), -0.5),
    (float("inf"), -1.0, -0.5),
    (1.0, -1.0, float("nan")),
    (1e308, -1e308, -1e308),  # finite fields whose span overflows
])
def test_scheme_rejects_non_finite_scores(values):
    # in a child process: an accepted scheme like these made align_triple
    # loop forever in its traceback
    result = run_python(["-c", _ALIGN_WITH_SCHEME, json.dumps(values)], timeout=30)
    assert result.returncode == 0, f"accepted {values}: {result.stderr}"
