from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PresetDraws, distant_vocabulary, mutate_word
from luxnorm.corrupt import (
    CorpusStats,
    SentencePair,
    corrupt_sentence,
    iter_corrupted,
    pick_index,
    sentence_rng,
)
from luxnorm.dictionary import VariantDictionary
from luxnorm.tokenizer import splice, tokenize
from oracles import reference_corrupt_token, reference_pick_index


class TestCorruptSentence:
    def test_single_variant_always_replaces(self):
        dictionary = VariantDictionary({"Mëllech": {"Mellech": 1}})
        pair = corrupt_sentence("Drénk Mëllech", dictionary, random.Random(0))
        assert pair.source == "Drénk Mellech"
        assert pair.target == "Drénk Mëllech"
        assert pair.changed_tokens == 1

    def test_no_dictionary_tokens_pass_through(self):
        dictionary = VariantDictionary({"x": {"y": 1}})
        pair = corrupt_sentence("alles bleift gläich", dictionary, random.Random(1))
        assert pair.source == pair.target == "alles bleift gläich"
        assert pair.changed_tokens == 0

    def test_identity_variant_counts_as_unchanged(self):
        dictionary = VariantDictionary({"x": {"x": 1}})
        pair = corrupt_sentence("x", dictionary, random.Random(2))
        assert pair.source == "x"
        assert pair.changed_tokens == 0

    def test_punctuation_never_replaced(self):
        dictionary = VariantDictionary({"?": {"!": 1}, "wee": {"wee2": 1}})
        pair = corrupt_sentence("wee ?", dictionary, random.Random(3))
        assert tokenize(pair.source)[-1] == "?"

    def test_clitic_prefix_survives_replacement(self):
        dictionary = VariantDictionary({"Bischt": {"Buscht": 1}})
        pair = corrupt_sentence("Wou ass d'Bischt?", dictionary, random.Random(4))
        assert "d'Buscht" in pair.source

    def test_case_folded_lookup_restores_pattern(self):
        dictionary = VariantDictionary({"mëllech": {"mellech": 1}})
        pair = corrupt_sentence("Mëllech ass gutt", dictionary, random.Random(5))
        assert pair.source.startswith("Mellech ")

    def test_token_counts_preserved(self):
        dictionary = VariantDictionary({"Haus": {"Hauss": 1}, "kleng": {"klenk": 1}})
        pair = corrupt_sentence("En Haus ass kleng.", dictionary, random.Random(6))
        assert len(tokenize(pair.source)) == len(tokenize(pair.target))

    def test_whitespace_variant_skipped(self):
        dictionary = VariantDictionary({"vläicht": {"vläi cht": 1}})
        pair = corrupt_sentence("vläicht muer", dictionary, random.Random(7))
        assert pair.source == "vläicht muer"
        assert pair.changed_tokens == 0

    def test_variant_with_edge_punctuation_skipped(self):
        # "gut." would write two tokens, "gut" and ".", in the place of one
        dictionary = VariantDictionary({"gutt": {"gut.": 1}})
        pair = corrupt_sentence("dat ass gutt elo", dictionary, random.Random(7))
        assert pair.source == "dat ass gutt elo"
        assert pair.changed_tokens == 0

    def test_unchanged_sentence_keeps_input_bytes(self):
        dictionary = VariantDictionary({"x": {"y": 1}})
        pair = corrupt_sentence('ar "gutt" !', dictionary, random.Random(9))
        assert pair.changed_tokens == 0
        assert pair.source == pair.target == 'ar "gutt" !'

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError):
            corrupt_sentence("  ", VariantDictionary({"a": {"b": 1}}), random.Random(0))

    def test_changed_tokens_equals_positionwise_difference(self):
        dictionary = VariantDictionary(
            {"gutt": {"gut": 3, "gutt": 1}, "Dag": {"Dach": 1}, "en": {"en": 1}}
        )
        pair = corrupt_sentence("en gutt Dag , en gutt Dag", dictionary, random.Random(8))
        diff = sum(
            s != t for s, t in zip(tokenize(pair.source), tokenize(pair.target))
        )
        assert diff == pair.changed_tokens


# Lower-case stems, cased per lemma and per token: Title, ALL-CAPS and mixed
# forms of one stem fold to the same key, so the fallback tie-break runs.
stems = st.text(alphabet="abë", min_size=1, max_size=3)
casings = st.sampled_from([
    str.lower,
    str.title,
    str.upper,
    lambda w: "".join(c.upper() if i % 2 else c for i, c in enumerate(w)),
])
cased = st.builds(lambda casing, stem: casing(stem), casings, stems)
variant_texts = st.one_of(
    cased,
    st.builds(lambda a, gap, b: a + gap + b, stems, st.sampled_from([" ", "\u00a0"]), stems),
    # a space or a "." anywhere: some replacements are not one token
    st.text(alphabet="abë .", min_size=1, max_size=4),
)
# a draw at a fraction k/d, just below one, or anywhere in [0, 1)
fractions = st.builds(lambda d, k: k % d / d, st.integers(1, 12), st.integers(0, 11))
uniforms = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    fractions,
    fractions.map(lambda u: max(0.0, math.nextafter(u, 0))),
)

# One object per distinct table, so that examples with the same table
# share a dictionary and hit the type entries earlier examples made.
_DICTIONARIES: dict[tuple, object] = {}


@st.composite
def dictionaries(draw):
    table = {}
    for lemma in draw(st.lists(cased, min_size=1, max_size=6, unique=True)):
        variants = draw(st.lists(st.one_of(st.just(lemma), variant_texts), min_size=1,
                                 max_size=4, unique=True))
        table[lemma] = {v: draw(st.integers(1, 5)) for v in variants}
    key = tuple((lemma, tuple(v.items())) for lemma, v in table.items())
    if key not in _DICTIONARIES:
        _DICTIONARIES[key] = VariantDictionary(table)
    return _DICTIONARIES[key], list(table)


@st.composite
def sentences(draw, lemmas: list[str]):
    words = st.one_of(
        st.sampled_from(lemmas).flatmap(
            lambda lemma: st.sampled_from([lemma, lemma.lower(), lemma.upper(), lemma.title()])
        ),
        cased,
    )
    tokens = st.one_of(
        st.builds(lambda clitic, word: clitic + word, st.sampled_from(["", "", "d'", "L'", "z'"]),
                  words),
        st.sampled_from(list(".,!?;:„“\"()")),
    )
    parts = draw(st.lists(st.tuples(tokens, st.sampled_from([" ", " ", "  ", "\t", ""])),
                          min_size=1, max_size=8))
    return "".join(token + gap for token, gap in parts)


class TestTypeTable:
    @given(dictionaries(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_position_reference(self, built, data):
        # the type table gives what resolving each position afresh gives,
        # for the same draws, including positions that hit earlier entries
        dictionary, lemmas = built
        for sentence in data.draw(st.lists(sentences(lemmas), min_size=1, max_size=3)):
            tokens = tokenize(sentence)
            draws = data.draw(st.lists(uniforms, min_size=len(tokens), max_size=len(tokens)))
            expected = [reference_corrupt_token(t, dictionary, u) for t, u in zip(tokens, draws)]
            pair = corrupt_sentence(sentence, dictionary, PresetDraws(draws))
            assert pair.source == splice(sentence, tokens, expected)
            assert pair.target == sentence
            assert pair.changed_tokens == sum(a != b for a, b in zip(tokens, expected))
            assert pair.token_count == len(tokens)


class TestPickIndex:
    def test_covers_whole_unit_interval(self):
        assert pick_index((1, 2), 0.0) == 0
        assert pick_index((1, 2), 0.4999) == 0
        assert pick_index((1, 2), 0.5) == 1
        assert pick_index((1, 2), 0.999999) == 1

    @given(st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_boundaries_match_running_total_walk(self, counts, data):
        # at u = k/total and just below it, the binary search over running
        # counts picks what the walk over the counts picks
        total = sum(counts)
        running = [sum(counts[: i + 1]) for i in range(len(counts))]
        ks = {k + d for k in [0, *running] for d in (-1, 0, 1) if 0 <= k + d <= total}
        ks.update(data.draw(st.lists(st.integers(0, total), max_size=20)))
        for k in sorted(ks):
            for u in (k / total, math.nextafter(k / total, 0)):
                assert pick_index(running, u) == reference_pick_index(counts, u), (k, u)


class TestDeterminism:
    def test_sentence_rng_is_stable(self):
        a = sentence_rng(42, 7).random()
        b = sentence_rng(42, 7).random()
        assert a == b
        assert sentence_rng(42, 8).random() != a
        assert sentence_rng(43, 7).random() != a

    def test_corpus_is_reproducible(self):
        dictionary = VariantDictionary({"gutt": {"gut": 1, "gutt": 1}})
        lines = ["e gutt Joer", "e gutt Buch", "alles gutt"] * 5
        first = list(iter_corrupted(lines, dictionary, seed=42))
        second = list(iter_corrupted(lines, dictionary, seed=42))
        assert first == second

    def test_worker_count_does_not_change_output(self, pool_starts):
        dictionary = VariantDictionary({"gutt": {"gut": 1, "gutt": 1}})
        lines = [f"nummer {i} ass gutt" for i in range(40)]
        serial = list(iter_corrupted(lines, dictionary, seed=5, workers=1))
        parallel = list(iter_corrupted(lines, dictionary, seed=5, workers=4))
        assert serial == parallel
        assert pool_starts == [3]

    def test_monotone_coverage(self):
        # removing a lemma never increases changed_tokens anywhere, because
        # per-position draws are fixed by the per-sentence stream
        rng = random.Random(99)
        vocab = distant_vocabulary(rng, 8)
        table = {w: {mutate_word(rng, w): 1, w: 1} for w in vocab}
        full = VariantDictionary(table)
        reduced = VariantDictionary({w: v for w, v in table.items() if w != vocab[0]})
        lines = [" ".join(rng.choices(vocab, k=6)) for _ in range(30)]
        full_pairs = list(iter_corrupted(lines, full, seed=11))
        reduced_pairs = list(iter_corrupted(lines, reduced, seed=11))
        for with_lemma, without_lemma in zip(full_pairs, reduced_pairs):
            assert without_lemma.changed_tokens <= with_lemma.changed_tokens


class TestCorpusStats:
    def test_empty_dictionary_counts_nothing(self):
        dictionary = VariantDictionary({"zzz": {"zz": 1}})
        lines = ["eng zeil", "nach eng zeil", "déi lescht zeil"]
        stats = CorpusStats()
        pairs = list(iter_corrupted(lines, dictionary, seed=1, stats=stats))
        assert stats.pair_count == 3
        assert stats.mean_changed_tokens == 0
        assert stats.replacement_rate == 0
        assert [p.source for p in pairs] == lines

    def test_blank_lines_skipped_and_counted(self):
        dictionary = VariantDictionary({"a": {"b": 1}})
        stats = CorpusStats()
        pairs = list(iter_corrupted(["a", "", "  ", "a"], dictionary, 3, stats=stats))
        assert len(pairs) == 2
        assert stats.skipped_blank_lines == 2

    def test_replacement_rate_matches_binomial_expectation(self):
        # every token in-dictionary with a 50/50 identity/non-identity split;
        # the rate is recounted independently from the emitted pairs
        rng = random.Random(1234)
        vocab = distant_vocabulary(rng, 30)
        dictionary = VariantDictionary({w: {w: 1, mutate_word(rng, w): 1} for w in vocab})
        lines = [" ".join(rng.choices(vocab, k=8)) for _ in range(1000)]
        stats = CorpusStats()
        pairs = list(iter_corrupted(lines, dictionary, seed=77, stats=stats))
        changed = total = 0
        for pair in pairs:
            source_tokens = tokenize(pair.source)
            target_tokens = tokenize(pair.target)
            assert len(source_tokens) == len(target_tokens)
            changed += sum(s != t for s, t in zip(source_tokens, target_tokens))
            total += len(target_tokens)
        assert stats.replacement_rate == pytest.approx(changed / total)
        assert abs(stats.replacement_rate - 0.5) <= 0.03

    def test_jsonl_round_trip(self):
        dictionary = VariantDictionary({"gutt": {"gut": 1}})
        pair = corrupt_sentence("alles gutt", dictionary, random.Random(0))
        record = json.loads(pair.to_json())
        assert record == {"source": "alles gut", "target": "alles gutt", "changed": 1}

    @given(st.text(), st.text(), st.integers(min_value=0))
    @example('say "hi"\\ \x00\t\n\r', "Mëllech \u2028 \U0001f600", 3)
    @example("", "", 0)
    def test_json_line_is_what_json_dumps_writes(self, source, target, changed):
        pair = SentencePair(source, target, changed, changed)
        record = {"source": source, "target": target, "changed": changed}
        assert pair.to_json() == json.dumps(record, ensure_ascii=False)
