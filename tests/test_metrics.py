from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luxnorm.align import GAP, Alignment, ScoringScheme
from luxnorm.metrics import (
    Judgment,
    cer,
    classify_columns,
    compute_metrics,
    evaluate_sentences,
)


def make_triple(columns) -> Alignment:
    return Alignment(tuple(columns), 0.0)


class TestClassifyColumns:
    @pytest.mark.parametrize(
        "column, expected",
        [
            (("x", "x", "x"), Judgment.TN),
            (("x", "y", "y"), Judgment.TP),
            (("a", "a", "b"), Judgment.FN),
            (("c", "d", "c"), Judgment.FP),
            (("a", "z", "b"), Judgment.FN),  # miscorrection counts once
        ],
    )
    def test_rules(self, column, expected):
        assert classify_columns(make_triple([column])) == [expected]

    def test_hand_enumerated_triple(self):
        triple = make_triple([("a", "a", "b"), ("c", "d", "c"), ("e", "e", "e")])
        assert classify_columns(triple) == [Judgment.FN, Judgment.FP, Judgment.TN]

    def test_gap_is_distinct_token_value(self):
        # gold token missing in prediction: a real difference was missed
        assert classify_columns(make_triple([("a", GAP, "b")])) == [Judgment.FN]
        # prediction dropped a token that should have stayed
        assert classify_columns(make_triple([("a", GAP, "a")])) == [Judgment.FP]
        # inserted token matching an inserted gold token
        assert classify_columns(make_triple([(GAP, "b", "b")])) == [Judgment.TP]

    def test_nfc_normalization_applied(self):
        composed = "Mëllech"
        decomposed = "Mëllech"
        assert classify_columns(make_triple([(composed, decomposed, composed)])) == [
            Judgment.TN
        ]

    def test_double_count_flag_adds_fp_for_active_miscorrection(self):
        triple = make_triple([("a", "z", "b")])
        assert classify_columns(triple, double_count_miscorrections=True) == [
            Judgment.FN,
            Judgment.FP,
        ]
        # left alone: still a plain miss even when double counting
        assert classify_columns(
            make_triple([("a", "a", "b")]), double_count_miscorrections=True
        ) == [Judgment.FN]


class TestComputeMetrics:
    def test_all_tn_has_undefined_err(self):
        report = compute_metrics([Judgment.TN] * 5)
        assert report.accuracy == 1
        assert report.err is None
        assert report.precision is None

    def test_leave_as_is_scores_zero(self):
        # predictions identical to originals, two real errors in gold
        triple = make_triple([("a", "a", "b"), ("c", "c", "d"), ("e", "e", "e")])
        report = compute_metrics(classify_columns(triple))
        assert report.tp == 0
        assert report.fp == 0
        assert report.err == 0

    def test_perfect_normalization_scores_one(self):
        triple = make_triple([("a", "b", "b"), ("c", "c", "c")])
        report = compute_metrics(classify_columns(triple))
        assert report.fn == 0
        assert report.fp == 0
        assert report.err == 1

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([])

    def test_counts_sum_to_columns(self):
        columns = [("a", "a", "a"), ("a", "b", "b"), ("a", "b", "c"), ("a", "b", "a")]
        judgments = classify_columns(make_triple(columns))
        report = compute_metrics(judgments)
        assert report.tp + report.fp + report.fn + report.tn == len(columns)

    @given(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
    )
    def test_err_identity_exact(self, tp, fp, fn, tn):
        judgments = (
            [Judgment.TP] * tp + [Judgment.FP] * fp + [Judgment.FN] * fn + [Judgment.TN] * tn
        )
        if not judgments:
            return
        report = compute_metrics(judgments)
        if tp + fn == 0:
            assert report.err is None
            return
        total = tp + fp + fn + tn
        baseline_accuracy = Fraction(tn + fp, total)
        expected = (report.accuracy - baseline_accuracy) / (1 - baseline_accuracy)
        assert report.err == expected
        assert report.err == Fraction(tp - fp, tp + fn)
        assert report.err <= 1  # may go negative, never above 1
        assert 0 <= report.accuracy <= 1

    def test_fixing_an_fn_never_decreases_err(self):
        # flip one FN column's prediction to gold, re-classify, recompute
        rng = random.Random(13)
        tokens = ["a", "b", "c", "d"]
        for _ in range(100):
            columns = []
            for _ in range(rng.randint(2, 12)):
                orig, pred, gold = (rng.choice(tokens) for _ in range(3))
                columns.append((orig, pred, gold))
            judgments = classify_columns(make_triple(columns))
            if Judgment.FN not in judgments:
                continue
            before = compute_metrics(judgments).err
            fixable = [i for i, j in enumerate(judgments) if j is Judgment.FN]
            index = rng.choice(fixable)
            orig, _, gold = columns[index]
            fixed = list(columns)
            fixed[index] = (orig, gold, gold)
            after = compute_metrics(classify_columns(make_triple(fixed))).err
            assert after >= before


class TestCer:
    def test_identical(self):
        assert cer(["abc"], ["abc"]) == 0

    def test_single_substitution(self):
        assert cer(["abd"], ["abc"]) == Fraction(1, 3)

    def test_batch_pools_distances(self):
        # (0 + 1) / (2 + 2), verified against the edit-distance oracle
        assert cer(["ab", "a"], ["ab", "ab"]) == Fraction(1, 4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cer(["a"], ["a", "b"])

    def test_empty_reference_undefined(self):
        assert cer([""], [""]) is None

    def test_order_invariance(self):
        pairs = [("kitten", "sitting"), ("a", "ab"), ("x", "x"), ("", "q")]
        preds = [p for p, _ in pairs]
        golds = [g for _, g in pairs]
        forward = cer(preds, golds)
        backward = cer(list(reversed(preds)), list(reversed(golds)))
        assert forward == backward

    def test_long_line_is_fast(self):
        rng = random.Random(5)
        gold = "".join(rng.choice("aeiouëé nrst") for _ in range(5_000))
        predicted = "".join("x" if rng.random() < 0.1 else ch for ch in gold)
        substituted = sum(p != g for p, g in zip(predicted, gold))
        start = time.perf_counter()
        value = cer([predicted], [gold])
        assert time.perf_counter() - start < 0.5
        assert 0 < value <= Fraction(substituted, len(gold))


class TestEvaluateSentences:
    def test_leave_as_is_on_real_sentences(self):
        original = ["Drénk Mellech mat Hunneg.", "Alles ass gutt."]
        gold = ["Drénk Mëllech mat Hunneg.", "Alles ass gutt."]
        report, rows = evaluate_sentences(original, original, gold)
        assert report.err == 0
        assert report.tp == 0
        assert report.fp == 0
        assert len(rows) == 2

    def test_perfect_predictions(self):
        original = ["Drénk Mellech mat Hunneg."]
        gold = ["Drénk Mëllech mat Hunneg."]
        report, _ = evaluate_sentences(original, gold, gold)
        assert report.err == 1
        assert report.accuracy == 1
        assert report.cer == 0

    def test_line_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate_sentences(["a"], ["a", "b"], ["a"])

    def test_scheme_is_configurable(self):
        report, _ = evaluate_sentences(
            ["wuert hei"], ["wuert hei"], ["wuert hei"], ScoringScheme(gap_penalty=-0.9)
        )
        assert report.accuracy == 1
