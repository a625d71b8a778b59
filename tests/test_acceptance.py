"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS
lines as they happen). Tolerances are pinned in the assertions.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import distant_vocabulary, mutate_word
from luxnorm.align import ScoringScheme, align_triple, levenshtein, token_similarity
from luxnorm.checklist import Setup, default_suite_path, load_suite, run_suite
from luxnorm.cli import main
from luxnorm.corrupt import CorpusStats, iter_corrupted
from luxnorm.dictionary import VariantDictionary, build_reverse_index
from luxnorm.metrics import Judgment, compute_metrics, evaluate_sentences
from luxnorm.normalize import Lexicon, Pipeline
from oracles import (
    brute_force_triple_value,
    gold_sentence,
    kept,
    levenshtein_recursive,
    triple_value_oracle,
)

SCHEME = ScoringScheme()


def passed(name: str) -> None:
    print(f"ACCEPTANCE PASS — {name}")


def build_round_trip_fixture(seed: int, size: int, sentences: int, ambiguous: bool = False):
    """Vocabulary of mutually distant words, one-edit variants, a corpus.

    With ambiguous=False every variant maps to exactly one lemma and no
    variant is a lexicon word, so perfect recovery is forced. With
    ambiguous=True some variants are shared between lemmas and some
    collide with lexicon words.
    """
    rng = random.Random(seed)
    vocab = distant_vocabulary(rng, size)
    variants = {w: mutate_word(rng, w) for w in vocab}
    table = {w: {v: 1} for w, v in variants.items()}
    if ambiguous:
        # two lemma pairs share a variant; two words list another lexicon
        # word as their variant; two words also keep an identity variant
        table[vocab[0]][variants[vocab[1]]] = 1
        table[vocab[2]][variants[vocab[3]]] = 1
        table[vocab[4]] = {vocab[5]: 1}
        table[vocab[6]] = {vocab[7]: 1}
        table[vocab[8]][vocab[8]] = 1
        table[vocab[9]][vocab[9]] = 1
    dictionary = VariantDictionary(table)
    lexicon = Lexicon({w: rng.randint(1, 50) for w in vocab})
    corpus = []
    for _ in range(sentences):
        words = rng.choices(vocab, k=rng.randint(5, 9))
        sentence = " ".join(words) + "."
        corpus.append(sentence[0].upper() + sentence[1:])
    return dictionary, lexicon, corpus


def test_leave_as_is_baseline_err_zero():
    """Predictions identical to originals: ERR = 0 exactly, FP = TP = 0."""
    dictionary, _, corpus = build_round_trip_fixture(seed=3, size=12, sentences=25)
    pairs = list(iter_corrupted(corpus, dictionary, seed=3))
    original = [p.source for p in pairs]
    gold = [p.target for p in pairs]
    assert any(o != g for o, g in zip(original, gold)), "fixture must contain errors"
    report, _ = evaluate_sentences(original, original, gold)
    assert report.err == 0
    assert isinstance(report.err, Fraction)
    assert report.fp == 0
    assert report.tp == 0
    passed("leave-as-is baseline: ERR = 0, FP = TP = 0")


def test_perfect_oracle_err_one():
    """Predictions identical to gold: ERR = 1, accuracy = 1, CER = 0."""
    dictionary, _, corpus = build_round_trip_fixture(seed=4, size=12, sentences=25)
    pairs = list(iter_corrupted(corpus, dictionary, seed=4))
    original = [p.source for p in pairs]
    gold = [p.target for p in pairs]
    assert any(o != g for o, g in zip(original, gold))
    report, _ = evaluate_sentences(original, gold, gold)
    assert report.err == 1
    assert report.accuracy == 1
    assert report.cer == 0
    passed("perfect oracle: ERR = 1, accuracy = 1, CER = 0")


def test_err_identity_exact_rational():
    """(tp-fp)/(tp+fn) == (acc - acc_baseline)/(1 - acc_baseline), exactly,
    on 1,000 random judgment multisets with tp+fn >= 1 (0 tolerance)."""
    rng = random.Random(1001)
    checked = 0
    while checked < 1000:
        tp, fp, fn, tn = (rng.randint(0, 40) for _ in range(4))
        if tp + fn == 0:
            continue
        judgments = (
            [Judgment.TP] * tp + [Judgment.FP] * fp + [Judgment.FN] * fn + [Judgment.TN] * tn
        )
        rng.shuffle(judgments)
        report = compute_metrics(judgments)
        total = tp + fp + fn + tn
        accuracy = Fraction(tp + tn, total)
        baseline = Fraction(tn + fp, total)
        assert report.err == Fraction(tp - fp, tp + fn)
        assert report.err == (accuracy - baseline) / (1 - baseline)
        checked += 1
    passed("ERR identity: both formulations equal on 1,000 multisets (exact)")


def _canonical_key(triple) -> str:
    ordered = sorted(triple, key=lambda s: (len(s), s))
    mapping: dict[str, str] = {}
    parts = []
    for seq in ordered:
        out = []
        for token in seq:
            if token not in mapping:
                mapping[token] = str(len(mapping))
            out.append(mapping[token])
        parts.append(",".join(out))
    return "|".join(parts)


def _triple_from_key(key: str):
    return tuple(
        tuple(part.split(",")) if part else () for part in key.split("|")
    )


def test_three_way_alignment_matches_brute_force_exhaustively():
    """3-way DP optimum equals brute force for every triple of sequences
    with lengths <= 4 over a 3-token alphabet; runtime under a minute.

    The sweep visits every triple through its equivalence class: the
    optimal value only depends on the token-equality pattern (single-char
    tokens score +1 equal / -1 distinct), is symmetric in the three
    sequences (column scores sum over unordered pairs), and is invariant
    under reversing all sequences (columns reverse with it). All scores
    are multiples of 0.5, so float sums are exact and comparisons use
    zero tolerance. The three invariances are verified directly on random
    triples below; each canonical class representative is then checked
    against an independent top-down enumeration oracle.
    """
    start = time.monotonic()
    sequences = [
        tuple(t) for length in range(5) for t in itertools.product("abc", repeat=length)
    ]
    assert len(sequences) == 121

    rng = random.Random(99)
    for _ in range(300):
        triple = tuple(
            tuple(rng.choice("abc") for _ in range(rng.randint(0, 4))) for _ in range(3)
        )
        value = align_triple(*triple, SCHEME).score
        renamed = tuple(
            tuple({"a": "x", "b": "y", "c": "z"}[t] for t in seq) for seq in triple
        )
        assert align_triple(*renamed, SCHEME).score == value
        for permutation in itertools.permutations(triple):
            assert align_triple(*permutation, SCHEME).score == value
        reversed_triple = tuple(tuple(reversed(seq)) for seq in triple)
        assert align_triple(*reversed_triple, SCHEME).score == value

    # the memoized oracle agrees with plain exhaustive enumeration; its memo
    # is shared by every call below and freed after the sweep
    best_triple_value = triple_value_oracle(SCHEME)
    for _ in range(40):
        triple = tuple(
            tuple(rng.choice("abc") for _ in range(rng.randint(0, 3))) for _ in range(3)
        )
        assert best_triple_value(*triple) == brute_force_triple_value(*triple, SCHEME)

    multisets = 0
    classes: set[str] = set()
    for triple in itertools.combinations_with_replacement(sequences, 3):
        multisets += 1
        key = _canonical_key(triple)
        mirrored = _canonical_key(tuple(tuple(reversed(seq)) for seq in triple))
        classes.add(min(key, mirrored))
    assert multisets == math.comb(121 + 2, 3)  # every multiset enumerated

    for key in classes:
        o, p, g = _triple_from_key(key)
        result = align_triple(o, p, g, SCHEME)
        assert result.score == best_triple_value(o, p, g), key
        assert [kept(result, side) for side in range(3)] == [list(o), list(p), list(g)]
    best_triple_value.cache_clear()

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"exhaustive sweep took {elapsed:.1f}s"
    passed(
        f"alignment oracle: {len(classes)} classes covering all 121^3 triples, "
        f"exact match in {elapsed:.1f}s"
    )


def test_levenshtein_matches_recursive_brute_force():
    """DP distance equals the recursive definition on 500 random pairs."""
    rng = random.Random(2024)
    for _ in range(500):
        a = "".join(rng.choice("abcë") for _ in range(rng.randint(0, 8)))
        b = "".join(rng.choice("abcë") for _ in range(rng.randint(0, 8)))
        assert levenshtein(a, b) == levenshtein_recursive(a, b)
    passed("Levenshtein oracle: 500 random pairs, exact")


def test_round_trip_recovery_err_one():
    """Corrupt with an unambiguous dictionary, normalize back: ERR = 1.0."""
    dictionary, lexicon, corpus = build_round_trip_fixture(seed=42, size=60, sentences=500)
    stats = CorpusStats()
    pairs = list(iter_corrupted(corpus, dictionary, seed=42, stats=stats))
    assert stats.total_changed > 0
    original = [p.source for p in pairs]
    gold = [p.target for p in pairs]
    pipeline = Pipeline(build_reverse_index(dictionary), lexicon)
    predicted = pipeline.normalize_lines(original)
    report, _ = evaluate_sentences(original, predicted, gold)
    assert report.err == 1, (report.tp, report.fp, report.fn, report.tn)
    assert isinstance(report.err, Fraction)
    assert report.fp == 0 and report.fn == 0
    assert report.tp == stats.total_changed
    passed(f"round-trip recovery: ERR = 1.0 over {stats.total_changed} corruptions")


def test_sampling_fidelity_80_20():
    """10,000 seeded synth draws from an 80/20 lemma stay within +/-0.02."""
    dictionary = VariantDictionary({"w": {"heefeg": 80, "seelen": 20}})
    draws = [pair.source for pair in iter_corrupted(["w"] * 10_000, dictionary, seed=42)]
    frequent = draws.count("heefeg") / 10_000
    rare = draws.count("seelen") / 10_000
    assert abs(frequent - 0.8) <= 0.02, frequent
    assert abs(rare - 0.2) <= 0.02, rare
    passed(f"sampling fidelity: 80/20 counts drawn at {frequent:.3f}/{rare:.3f}")


def test_checklist_smoke_identity_and_oracle():
    """Identity: 0% on CORRECT and 100% on PRESERVE cells; gold oracle:
    100% everywhere; both over the shipped suite in under 10 seconds."""
    start = time.monotonic()
    suite = load_suite(default_suite_path())
    categories = {unit.category for unit in suite}
    assert (len(categories), len(suite)) == (21, 420)

    identity = lambda sentences: list(sentences)
    report = run_suite(suite, identity([unit.sentence for unit in suite]))
    for category in categories:
        assert report.cell(category, Setup.CORRECT).success_rate == 0.0, category
        assert report.cell(category, Setup.PRESERVE).success_rate == 100.0, category

    gold = {unit.sentence: gold_sentence(unit) for unit in suite}
    oracle = lambda sentences: [gold.get(s, s) for s in sentences]
    report = run_suite(suite, oracle([unit.sentence for unit in suite]))
    for category in categories:
        assert report.cell(category, Setup.CORRECT).success_rate == 100.0, category
        assert report.cell(category, Setup.PRESERVE).success_rate == 100.0, category

    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"checklist smoke took {elapsed:.1f}s"
    passed(f"checklist smoke: identity 0/100, oracle 100/100 in {elapsed:.1f}s")


def _write_workspace(tmp_path):
    rng = random.Random(8)
    vocab = distant_vocabulary(rng, 25)
    variants = {w: mutate_word(rng, w) for w in vocab}
    (tmp_path / "variants.tsv").write_text(
        "".join(f"{w}\t{v}\t{rng.randint(1, 9)}\n" for w, v in variants.items()),
        encoding="utf-8",
    )
    (tmp_path / "lexicon.tsv").write_text(
        "".join(f"{w}\t{rng.randint(1, 40)}\n" for w in vocab), encoding="utf-8"
    )
    gold = [" ".join(rng.choices(vocab, k=6)) + "." for _ in range(30)]
    orig = []
    for line in gold:
        tokens = line[:-1].split()
        at = rng.randrange(len(tokens))
        tokens[at] = variants[tokens[at]]
        orig.append(" ".join(tokens) + ".")
    (tmp_path / "corpus.txt").write_text("".join(l + "\n" for l in gold), encoding="utf-8")
    (tmp_path / "orig.txt").write_text("".join(l + "\n" for l in orig), encoding="utf-8")
    (tmp_path / "gold.txt").write_text("".join(l + "\n" for l in gold), encoding="utf-8")


def test_synth_and_run_deterministic_across_workers(tmp_path, pool_starts):
    """synth and run produce identical results with 1 and 8 workers; the
    report matches modulo the timestamp (and the worker/output settings
    that are deliberately part of the config snapshot)."""
    _write_workspace(tmp_path)

    synth_outputs = []
    for workers in ("1", "8"):
        out = tmp_path / f"pairs-{workers}.jsonl"
        stats = tmp_path / f"stats-{workers}.json"
        code = main(
            [
                "synth",
                "--dict", str(tmp_path / "variants.tsv"),
                "--corpus", str(tmp_path / "corpus.txt"),
                "--out", str(out),
                "--seed", "42",
                "--stats", str(stats),
                "--workers", workers,
            ]
        )
        assert code == 0
        synth_outputs.append(out.read_bytes() + stats.read_bytes())
    assert synth_outputs[0] == synth_outputs[1]
    assert pool_starts == [7]

    run_reports = []
    run_artifacts = []
    for workers in ("1", "8"):
        out_dir = tmp_path / f"run-{workers}"
        code = main(
            [
                "run",
                "--dict", str(tmp_path / "variants.tsv"),
                "--lexicon", str(tmp_path / "lexicon.tsv"),
                "--eval-orig", str(tmp_path / "orig.txt"),
                "--eval-gold", str(tmp_path / "gold.txt"),
                "--out-dir", str(out_dir),
                "--seed", "42",
                "--workers", workers,
            ]
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        report.pop("timestamp")
        report["config"].pop("workers")
        report["config"].pop("output_dir")
        run_reports.append(report)
        run_artifacts.append(
            (out_dir / "predictions.txt").read_bytes()
            + (out_dir / "suite_report.txt").read_bytes()
        )
    assert run_reports[0] == run_reports[1]
    assert run_artifacts[0] == run_artifacts[1]
    assert pool_starts == [7, 7]
    passed("determinism: synth and run identical across 1- and 8-worker executions")


def test_pipeline_beats_leave_as_is_on_ambiguous_fixture():
    """Soft sanity target: with a realistically ambiguous dictionary the
    pipeline still lands strictly above the leave-as-is baseline."""
    dictionary, lexicon, corpus = build_round_trip_fixture(
        seed=7, size=40, sentences=200, ambiguous=True
    )
    stats = CorpusStats()
    pairs = list(iter_corrupted(corpus, dictionary, seed=7, stats=stats))
    assert stats.total_changed > 0
    original = [p.source for p in pairs]
    gold = [p.target for p in pairs]
    pipeline = Pipeline(build_reverse_index(dictionary), lexicon)
    predicted = pipeline.normalize_lines(original)
    report, _ = evaluate_sentences(original, predicted, gold)
    assert report.err is not None
    assert report.err > 0, report
    passed(f"ambiguous-dictionary sanity: pipeline ERR = {float(report.err):.3f} > 0")
