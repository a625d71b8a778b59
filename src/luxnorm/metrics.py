"""Token-level confusion judgments and normalization metrics.

Each aligned (original, predicted, gold) column is classified as TP, FP,
FN, or TN; the word-level report derives accuracy, precision, recall, F1
and the error reduction rate (ERR) from the counts, in exact rational
arithmetic. ERR is 1 for perfect normalization, 0 for the leave-as-is
baseline, and negative when a system introduces more errors than it fixes.

Undefined metric values (zero denominators) are reported as None and
serialize as null; they are never silently replaced by 0.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from luxnorm.align import GAP, DEFAULT_SCHEME, Alignment, ScoringScheme, align_triple, levenshtein
from luxnorm.tokenizer import tokenize


class Judgment(Enum):
    TP = "tp"
    FP = "fp"
    FN = "fn"
    TN = "tn"


def nfc(token: object) -> object:
    """NFC form of a token; GAP passes through, unequal to every string."""
    if isinstance(token, str):
        return unicodedata.normalize("NFC", token)
    return token


def classify_columns(
    triple: Alignment,
    double_count_miscorrections: bool = False,
) -> list[Judgment]:
    """Classify each aligned column against the gold reference.

    A word that needed correction and was changed to something third
    counts as FN only. With double_count_miscorrections it additionally
    counts as FP; this breaks judgment-count == column-count and the ERR
    identity, so it is off by default and meant for sensitivity analysis.
    """
    judgments: list[Judgment] = []
    for original, predicted, gold in triple.columns:
        original = nfc(original)
        predicted = nfc(predicted)
        gold = nfc(gold)
        if gold != original:
            if predicted == gold:
                judgments.append(Judgment.TP)
            else:
                judgments.append(Judgment.FN)
                if double_count_miscorrections and predicted != original:
                    judgments.append(Judgment.FP)
        else:
            if predicted == original:
                judgments.append(Judgment.TN)
            else:
                judgments.append(Judgment.FP)
    return judgments


@dataclass
class MetricsReport:
    """Confusion counts plus derived metrics; None marks undefined values."""

    tp: int
    fp: int
    fn: int
    tn: int
    accuracy: Fraction | None
    precision: Fraction | None
    recall: Fraction | None
    f1: Fraction | None
    err: Fraction | None
    cer: Fraction | None = None

    def to_dict(self) -> dict:
        def as_float(value: Fraction | None) -> float | None:
            return None if value is None else float(value)

        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "tn": self.tn,
            "accuracy": as_float(self.accuracy),
            "precision": as_float(self.precision),
            "recall": as_float(self.recall),
            "f1": as_float(self.f1),
            "err": as_float(self.err),
            "cer": as_float(self.cer),
        }


def compute_metrics(judgments: Iterable[Judgment]) -> MetricsReport:
    """Word-level metrics from a judgment list. Raises on empty input."""
    tp = fp = fn = tn = 0
    for judgment in judgments:
        if judgment is Judgment.TP:
            tp += 1
        elif judgment is Judgment.FP:
            fp += 1
        elif judgment is Judgment.FN:
            fn += 1
        else:
            tn += 1
    total = tp + fp + fn + tn
    if total == 0:
        raise ValueError("cannot compute metrics from an empty judgment list")
    accuracy = Fraction(tp + tn, total)
    precision = Fraction(tp, tp + fp) if tp + fp else None
    recall = Fraction(tp, tp + fn) if tp + fn else None
    if precision is None or recall is None:
        f1 = None
    elif precision + recall == 0:
        f1 = Fraction(0)
    else:
        f1 = 2 * precision * recall / (precision + recall)
    if tp + fn:
        err = Fraction(tp - fp, tp + fn)
        # Cross-check against the accuracy formulation: the leave-as-is
        # baseline turns every to-be-corrected word into FN and everything
        # else into TN, so its accuracy is (tn+fp)/total.
        baseline = Fraction(tn + fp, total)
        assert err == (accuracy - baseline) / (1 - baseline)
    else:
        err = None
    return MetricsReport(tp, fp, fn, tn, accuracy, precision, recall, f1, err)


def cer(predicted: Sequence[str], gold: Sequence[str]) -> Fraction | None:
    """Character error rate over whole sentences, spaces included.

    Sum of sentence-level edit distances divided by total reference
    characters; None when the reference is empty.
    """
    if len(predicted) != len(gold):
        raise ValueError(
            f"prediction/reference counts differ: {len(predicted)} vs {len(gold)}"
        )
    distance = 0
    reference_length = 0
    for pred, ref in zip(predicted, gold):
        pred = unicodedata.normalize("NFC", pred)
        ref = unicodedata.normalize("NFC", ref)
        distance += levenshtein(pred, ref)
        reference_length += len(ref)
    if reference_length == 0:
        return None
    return Fraction(distance, reference_length)


@dataclass
class SentenceEvaluation:
    """Per-sentence diagnostic row for verbose reports."""

    index: int
    judgments: list[Judgment]
    columns: tuple


def evaluate_sentences(
    original: Sequence[str],
    predicted: Sequence[str],
    gold: Sequence[str],
    scheme: ScoringScheme = DEFAULT_SCHEME,
    double_count_miscorrections: bool = False,
) -> tuple[MetricsReport, list[SentenceEvaluation]]:
    """Align and score a batch of sentences; the full evaluation pass.

    Tokenizes each (original, predicted, gold) sentence triple, aligns it,
    classifies the columns, and aggregates word-level metrics plus CER.
    """
    if not (len(original) == len(predicted) == len(gold)):
        raise ValueError(
            "original/predicted/gold line counts differ: "
            f"{len(original)}/{len(predicted)}/{len(gold)}"
        )
    if not original:
        raise ValueError("cannot evaluate an empty sentence batch")
    all_judgments: list[Judgment] = []
    per_sentence: list[SentenceEvaluation] = []
    for index, (orig, pred, ref) in enumerate(zip(original, predicted, gold)):
        triple = align_triple(tokenize(orig), tokenize(pred), tokenize(ref), scheme)
        judgments = classify_columns(triple, double_count_miscorrections)
        all_judgments.extend(judgments)
        per_sentence.append(SentenceEvaluation(index, judgments, triple.columns))
    report = compute_metrics(all_judgments)
    report.cer = cer(predicted, gold)
    return report, per_sentence
