from __future__ import annotations

import gc
import math
import pickle
import random
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from luxnorm.dictionary import VariantDictionary, build_reverse_index
from luxnorm.errors import ParseError, ProtocolError
from luxnorm.experiment import run_external_normalizer
from luxnorm.normalize import (
    LUX_ALPHABET,
    Lexicon,
    NgramIndex,
    Pipeline,
    PipelineConfig,
    _collector_paused,
    edit_candidates,
    load_lexicon,
    ngram_candidates,
)
from oracles import (
    ReferenceNgramIndex,
    damerau_levenshtein,
    neighborhood_distances,
    reference_choose,
)


def reference_tfidf_cosine(lexicon_words: list[str], a: str, b: str, n: int = 3) -> float:
    """Direct quadratic tf-idf cosine, independent of the indexed version."""

    def grams(word: str) -> dict[str, int]:
        padded = "\t" * (n - 1) + word + "\n" * (n - 1)
        out: dict[str, int] = {}
        for i in range(len(padded) - n + 1):
            gram = padded[i : i + n]
            out[gram] = out.get(gram, 0) + 1
        return out

    df: dict[str, int] = {}
    for word in lexicon_words:
        for gram in grams(word):
            df[gram] = df.get(gram, 0) + 1
    total = len(lexicon_words)

    def vector(word: str) -> dict[str, float]:
        return {
            gram: count * (math.log((1 + total) / (1 + df[gram])) + 1.0)
            for gram, count in grams(word).items()
            if gram in df
        }

    va, vb = vector(a), vector(b)
    dot = sum(w * vb.get(g, 0.0) for g, w in va.items())
    na = math.sqrt(sum(w * w for w in va.values()))
    nb = math.sqrt(sum(w * w for w in vb.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


class TestLexicon:
    def test_membership_and_fold(self):
        lexicon = Lexicon({"Mëllech": 10, "brout": 2})
        assert "Mëllech" in lexicon
        assert "mëllech" not in lexicon
        assert lexicon.contains_folded("MËLLECH")
        assert not lexicon.contains_folded("Béier")

    def test_relative_frequency(self):
        # casings pool their counts: haus 8 + 2 = 10 is the maximum
        lexicon = Lexicon({"Haus": 8, "haus": 2, "Bam": 5})
        assert lexicon.relative_frequency_folded("HAUS") == 1.0
        assert lexicon.relative_frequency_folded("haus") == 1.0
        assert lexicon.relative_frequency_folded("bam") == 0.5
        assert lexicon.relative_frequency_folded("zz") == 0.0

    def test_load_lexicon(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# comment\nHaus\t4\nHaus\t1\nBam\t2\n", encoding="utf-8")
        lexicon = load_lexicon(path)
        assert lexicon.count("Haus") == 5
        assert lexicon.count("Bam") == 2

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("Haus\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_lexicon(path)

    @pytest.mark.parametrize("form", ["gutt a", "asw.", ""])
    def test_form_must_be_one_token(self, tmp_path, form):
        # normalize writes a form in one token's place
        with pytest.raises(ValueError, match="not one token"):
            Lexicon({"ass": 3, form: 1})
        path = tmp_path / "lex.tsv"
        path.write_text(f"ass\t3\n{form}\t1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="not one token") as excinfo:
            load_lexicon(path)
        assert excinfo.value.line == 2


# letters of LUX_ALPHABET plus characters that may only be deleted or moved
EDIT_CHARS = "aäbA-2'"


@st.composite
def _near_words(draw, token: str) -> list[str]:
    """Random words plus up-to-three-edit mutants of `token`; mutants may
    write any character, so some are close but unreachable."""
    words = draw(st.lists(st.text(alphabet=EDIT_CHARS, min_size=1, max_size=7), max_size=8))
    for _ in range(draw(st.integers(0, 8))):
        word = token
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(word)))
            ch = draw(st.sampled_from(EDIT_CHARS))
            op = draw(st.sampled_from(["delete", "insert", "substitute", "transpose"]))
            if op == "delete":
                word = word[:i] + word[i + 1:]
            elif op == "insert":
                word = word[:i] + ch + word[i:]
            elif op == "substitute":
                word = word[:i] + ch + word[i + 1:]
            elif i + 1 < len(word):
                word = word[:i] + word[i + 1] + word[i] + word[i + 2:]
        words.append(word)
    return [w for w in words if w] or [token]


_EDIT_CASES = st.text(alphabet=EDIT_CHARS, min_size=1, max_size=6).flatmap(
    lambda token: st.tuples(st.just(token), _near_words(token))
)


def no_variant_pipeline(lexicon: Lexicon, **config_kwargs) -> Pipeline:
    """A pipeline whose variant dictionary is empty."""
    return Pipeline(
        build_reverse_index(VariantDictionary({})), lexicon, PipelineConfig(**config_kwargs)
    )


def edit_components(token: str, lexicon: Lexicon, max_distance: int) -> dict[str, float]:
    """The edit component of every form in a pool where only the edit
    route runs (no variant dictionary entries, top-0 n-grams)."""
    pipeline = no_variant_pipeline(lexicon, max_edit_distance=max_distance, topk=0)
    return {form: components[1] for form, components in pipeline.candidates(token).items()}


class TestEditCandidates:
    def test_both_lexicon_neighbors_found(self):
        lexicon = Lexicon({"iessen": 3, "eisen": 2, "ganz": 9})
        forms = edit_candidates("iesen", lexicon, 2)
        assert forms["iessen"] == 1
        assert forms["eisen"] == 1
        assert "ganz" not in forms

    def test_token_in_lexicon_is_distance_zero(self):
        lexicon = Lexicon({"haus": 1})
        assert edit_candidates("haus", lexicon, 1) == {"haus": 0}
        assert edit_components("haus", lexicon, 1) == {"haus": 1.0}

    def test_no_neighbors_is_empty(self):
        assert edit_candidates("zzzz", Lexicon({"abc": 1}), 1) == {}

    def test_distance_one_outranks_distance_two(self):
        lexicon = Lexicon({"ab": 1, "abcd": 1})
        scores = edit_components("abc", lexicon, 2)
        assert scores["ab"] == scores["abcd"] == 0.5

    def test_transposition_is_one_edit(self):
        lexicon = Lexicon({"ab": 1})
        assert edit_candidates("ba", lexicon, 1) == {"ab": 1}

    def test_unrestricted_composition_of_two_edits(self):
        # transpose then insert: 2 edits, although the restricted
        # (optimal-string-alignment) distance would be 3
        lexicon = Lexicon({"abc": 1})
        assert edit_candidates("ca", lexicon, 2) == {"abc": 2}

    def test_empty_token_rejected(self):
        with pytest.raises(ValueError):
            edit_candidates("", Lexicon({"a": 1}), 1)

    @given(
        st.text(alphabet="aäbs", min_size=1, max_size=4),
        st.lists(st.text(alphabet="aäbs", min_size=1, max_size=5), max_size=25),
        st.sampled_from([1, 2]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_distance_filter(self, token, words, max_distance):
        lexicon = Lexicon({w: 1 for w in words}) if words else Lexicon({"q": 1})
        got = edit_candidates(token, lexicon, max_distance)
        want = {
            w: damerau_levenshtein(token, w)
            for w in lexicon
            if damerau_levenshtein(token, w) <= max_distance
        }
        assert got == want

    @given(_EDIT_CASES, st.sampled_from([1, 2]))
    @settings(max_examples=150, deadline=None)
    @example(("2Ab", ["b2"]), 2)
    @example(("aa-", ["-aa"]), 2)
    @example(("-bc", ["bc-", "bc"]), 2)
    @example(
        ("2024-10-17", ["2024-10-17", "2024-1017", "2024-01-71", "20241017", "2024-10-18", "2024-10"]),
        2,
    )
    def test_matches_neighborhood_enumeration(self, case, max_distance):
        token, words = case
        lexicon = Lexicon({w: 1 for w in words})
        # Only alphabet letters that occur in some lexicon word need to be
        # inserted or substituted: within two edits, a written character
        # absent from the word must be undone by the second edit (deleted
        # or overwritten), and the pair collapses to at most one edit that
        # writes no such character.
        alphabet = "".join(sorted(set("".join(lexicon)) & set(LUX_ALPHABET)))
        reachable = neighborhood_distances(token, max_distance, alphabet)
        got = edit_candidates(token, lexicon, max_distance)
        assert got == {w: reachable[w] for w in lexicon if w in reachable}

    def test_non_alphabet_character_is_never_inserted(self):
        lexicon = Lexicon({"E-Mail": 1})
        assert edit_candidates("EMail", lexicon, 2) == {}
        assert edit_candidates("E-Mal", lexicon, 2) == {"E-Mail": 1}
        assert edit_components("E-Mal", lexicon, 2) == {"E-Mail": 0.5}

    @given(
        st.text(alphabet="abëA", min_size=1, max_size=8),
        st.lists(st.text(alphabet="abëA", min_size=1, max_size=10), max_size=40),
        st.sampled_from([1, 2]),
    )
    @settings(max_examples=200, deadline=None)
    def test_alphabet_only_matches_damerau_levenshtein(self, token, words, max_distance):
        # over alphabet letters every edit is allowed, so the walk must
        # find exactly the forms within the unrestricted distance
        lexicon = Lexicon({w: 1 for w in words}) if words else Lexicon({"q": 1})
        distances = {w: damerau_levenshtein(token, w) for w in lexicon}
        want = sorted((d, w) for w, d in distances.items() if d <= max_distance)
        got = edit_candidates(token, lexicon, max_distance)
        assert [(d, w) for w, d in got.items()] == want

    def test_first_letter_edits_reach_every_shared_tail(self):
        # haus, maus and Laus share the tail "aus" under three alphabet first
        # letters, -aus and 2aus under two that no edit writes
        lexicon = Lexicon({w: 1 for w in ["aus", "haus", "maus", "Laus", "-aus", "2aus", "hausen"]})
        got = edit_candidates("xaus", lexicon, 2)
        assert list(got.items()) == [("Laus", 1), ("aus", 1), ("haus", 1), ("maus", 1)]
        got = edit_candidates("us", lexicon, 2)
        assert list(got.items()) == [("aus", 1), ("Laus", 2), ("haus", 2), ("maus", 2)]
        for token in ["xaus", "us", "aus", "haus", "aaus", "hau", "ausen"]:
            for max_distance in (1, 2):
                assert {"-aus", "2aus"}.isdisjoint(edit_candidates(token, lexicon, max_distance))

    def test_deep_shared_tail_builds(self):
        # two 2,000-character forms that differ only in their first letter
        # share a 1,999-character tail
        lexicon = Lexicon({"a" * 2000: 1, "b" + "a" * 1999: 1, "haus": 2})
        assert edit_candidates("haus", lexicon, 2) == {"haus": 0}

    def test_very_long_token_is_fast(self):
        rng = random.Random(7)
        token = "".join(rng.choice(LUX_ALPHABET) for _ in range(10_000))
        pipeline = build_pipeline()
        start = time.perf_counter()
        pipeline.normalize_token(token)
        assert time.perf_counter() - start < 0.5
        assert edit_candidates(token, pipeline.lexicon, 2) == {}
        # the match down a 10,000-character form is a loop, not recursion
        near = token[:5_000] + token[5_001:]
        assert edit_candidates(token, Lexicon({near: 1, "gutt": 1}), 2) == {near: 1}


class TestNgramIndex:
    LEXICON = ["Biischt", "Bascht", "Wuert"]

    def make_index(self) -> NgramIndex:
        return NgramIndex(Lexicon({"Biischt": 3, "Bascht": 2, "Wuert": 5}), n=3)

    def test_self_similarity_is_one(self):
        index = self.make_index()
        for word in self.LEXICON:
            assert index.rank(word, 3)[0] == (word, pytest.approx(1.0, abs=1e-9))

    def test_k_zero_is_empty(self):
        assert self.make_index().rank("Bischt", 0) == []
        assert ngram_candidates("Bischt", self.make_index(), 0) == []

    def test_misspelling_ranks_true_form_first(self):
        ranked = self.make_index().rank("Bischt", 3)
        assert [form for form, _ in ranked] == ["Biischt", "Bascht", "Wuert"]
        # frozen from the independent quadratic computation below
        assert ranked[0][1] == pytest.approx(0.836546, abs=1e-6)
        assert ranked[1][1] == pytest.approx(0.518168, abs=1e-6)
        assert ranked[2][1] == pytest.approx(0.064115, abs=1e-6)

    def test_matches_reference_implementation(self):
        # a word that rank omits must have reference cosine 0
        index = self.make_index()
        for token in ["Bischt", "Biischt", "Wuert", "Brascht", "xyz"]:
            ranked = dict(index.rank(token, len(self.LEXICON)))
            for word in self.LEXICON:
                assert ranked.get(word, 0.0) == pytest.approx(
                    reference_tfidf_cosine(sorted(self.LEXICON), token, word), abs=1e-9
                )

    def test_rank_scores_match_similarity(self):
        # a truncated ranking keeps the k words of highest reference cosine
        index = self.make_index()
        reference = sorted(
            ((reference_tfidf_cosine(sorted(self.LEXICON), "Bascht", w), w) for w in self.LEXICON),
            reverse=True,
        )
        ranked = index.rank("Bascht", 2)
        assert [form for form, _ in ranked] == [w for _, w in reference[:2]]
        for (form, score), (cosine, _) in zip(ranked, reference):
            assert score == pytest.approx(cosine, abs=1e-9)

    @given(
        st.dictionaries(
            st.text(alphabet="abcë", min_size=1, max_size=5), st.integers(1, 3), min_size=1,
            max_size=12,
        ),
        st.text(alphabet="abcëd", min_size=1, max_size=6),
        st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_top_k_is_a_prefix_of_the_full_sort(self, counts, token, n):
        # the full ranking holds every word of positive cosine, sorted by
        # (-cosine, -count, word); each shorter ranking is its prefix
        lexicon = Lexicon(counts)
        index = NgramIndex(lexicon, n)
        full = index.rank(token, len(counts))
        assert full == sorted(full, key=lambda item: (-item[1], -counts[item[0]], item[0]))
        words = sorted(counts)
        assert {w for w, _ in full} == {
            w for w in words if reference_tfidf_cosine(words, token, w, n) > 0.0
        }
        for k in range(len(counts) + 2):
            assert index.rank(token, k) == full[:k]

    # mostly letters, with two control characters that are ordinary
    # characters to the index; "d" is in no word
    WORD_CHARS = "aaabbbcccëë\x02\x03"

    @given(
        st.dictionaries(
            st.text(st.sampled_from(WORD_CHARS), min_size=1, max_size=6), st.integers(1, 3),
            min_size=1, max_size=12,
        ),
        st.text(st.sampled_from(WORD_CHARS + "d"), min_size=1, max_size=7),
        st.integers(1, 4),
    )
    # edge-only words that tie exactly, ordered by count, then form
    @example({"ab": 5, "ac": 5, "ad": 1}, "a", 2)
    # a 1-character token: its start and end grams are all its grams
    @example({"b": 1, "ab": 2, "ba": 1, "bb": 3}, "b", 2)
    # the index has neither edge gram of the token
    @example({"ab": 1, "abc": 2, "cab": 1}, "xaby", 2)
    # fewer words of positive cosine than k
    @example({"ab": 1, "xy": 1, "ya": 2}, "a", 2)
    # the last character's scan meets `acb`, which the first scan stopped before
    @example({"ab": 1, "acb": 1, "dccb": 1}, "ab", 2)
    # `acb`, edge-only, ties `cab` from the postings walk exactly and wins on count
    @example({"cab": 1, "acb": 2}, "ab", 2)
    # `accdeb`'s norm is one ulp above `adecdb`'s, yet their bounds are equal:
    # stopping on the whole tuple at `adecdb` (count 1) misses `accdeb` (count 3)
    @example({"adecdb": 1, "accdeb": 3, "aeb": 1, "adeccb": 3}, "axb", 2)
    # control characters inside a word and the token are ordinary characters
    @example({"ab": 1, "b\x02a": 1, "ca": 2}, "x\x02ab", 2)
    @settings(max_examples=300, deadline=None)
    def test_rank_matches_full_scan(self, counts, token, n):
        lexicon = Lexicon(counts)
        index = NgramIndex(lexicon, n)
        reference = ReferenceNgramIndex(lexicon, n)
        for k in range(len(counts) + 3):
            assert index.rank(token, k) == reference.rank(token, k)

    def test_control_characters_are_ordinary(self):
        # no gram of "\x02a" is a gram of either word
        index = NgramIndex(Lexicon({"abcd": 5, "xyzw": 2}))
        assert index.rank("\x02a", 5) == []
        assert index.rank("\x03", 5) == []

    def test_query_with_whitespace_rejected(self):
        index = NgramIndex(Lexicon({"abcd": 5, "xyzw": 2}))
        for token in ("a b", "\ta", "a\n"):
            with pytest.raises(ValueError, match="whitespace"):
                index.rank(token, 3)

    def test_tie_breaks_by_frequency_then_form(self):
        # ab/ac/ad all share exactly the boundary gram with the query and
        # have identical norms, so their similarities tie exactly
        index = NgramIndex(Lexicon({"ab": 5, "ac": 5, "ad": 1}), n=2)
        ranked = index.rank("a", 3)
        assert [form for form, _ in ranked] == ["ab", "ac", "ad"]
        assert ranked[0][1] == ranked[1][1] == ranked[2][1]


def build_pipeline(**config_kwargs) -> Pipeline:
    dictionary = VariantDictionary(
        {
            "Mëllech": {"Mellech": 120, "Millech": 30},
            "Biischt": {"Bischt": 4},
            "gutt": {"gutt": 5, "gut": 5},
        }
    )
    lexicon = Lexicon({"Mëllech": 50, "Biischt": 5, "gutt": 80, "ass": 100, "Drénk": 3})
    return Pipeline(
        build_reverse_index(dictionary),
        lexicon,
        PipelineConfig(**config_kwargs) if config_kwargs else None,
    )


class TestCandidatePool:
    def test_form_on_two_routes_is_one_entry(self):
        # Bischt reaches Biischt and Bascht by one edit and all three
        # words by n-grams: five route hits, three forms
        lexicon = Lexicon({"Biischt": 3, "Bascht": 2, "Wuert": 5})
        pool = no_variant_pipeline(lexicon).candidates("Bischt")
        assert sorted(pool) == ["Bascht", "Biischt", "Wuert"]
        assert pool["Biischt"] == [0.0, 0.5, pytest.approx(0.836546, abs=1e-6), 0.6]
        assert pool["Wuert"] == [0.0, 0.0, pytest.approx(0.064115, abs=1e-6), 1.0]

    def test_variant_component_joins_the_same_entry(self):
        pool = build_pipeline().candidates("Bischt")
        assert pool["Biischt"][:2] == [1.0, 0.5]

    def test_tie_breaks_by_smaller_edit_distance(self):
        # frequency weight only, equal counts, no n-gram route: abd and
        # abcde tie on score and count; abd is one edit away, abcde two
        lexicon = Lexicon({"abcde": 1, "abd": 1})
        pipeline = no_variant_pipeline(lexicon, weights=(0.0, 0.0, 0.0, 1.0), topk=0)
        assert pipeline.candidates("abc") == {
            "abd": [0.0, 0.5, 0.0, 1.0],
            "abcde": [0.0, pytest.approx(1 / 3), 0.0, 1.0],
        }
        assert pipeline.normalize_token("abc") == "abd"


class TestNormalizeToken:
    def test_lexicon_member_unchanged(self):
        pipeline = build_pipeline()
        assert pipeline.normalize_token("gutt") == "gutt"

    def test_unique_reverse_entry_with_empty_neighborhood(self):
        dictionary = VariantDictionary({"Mëllech": {"Qqqqx": 1}})
        lexicon = Lexicon({"wäit": 1})  # nothing near the variant
        pipeline = Pipeline(build_reverse_index(dictionary), lexicon)
        assert pipeline.normalize_token("Qqqqx") == "Mëllech"

    def test_variant_restores_lemma(self):
        pipeline = build_pipeline()
        assert pipeline.normalize_token("Mellech") == "Mëllech"

    def test_no_candidates_passes_through(self):
        pipeline = build_pipeline()
        assert pipeline.normalize_token("Xylophonzzz") == "Xylophonzzz"

    def test_case_folded_variant_restores_case_pattern(self):
        pipeline = build_pipeline()
        assert pipeline.normalize_token("mellech") == "mëllech"
        assert pipeline.normalize_token("MELLECH") == "MËLLECH"

    def test_sentence_initial_capitalization_beats_lowercase_twin(self):
        # the case-restored variant must outrank the lowercase lexicon
        # form even when the lexicon word is frequent and ngram-close
        dictionary = VariantDictionary({"wuert": {"vuert": 1}})
        lexicon = Lexicon({"wuert": 100, "ganz": 2})
        pipeline = Pipeline(build_reverse_index(dictionary), lexicon)
        assert pipeline.normalize_token("Vuert") == "Wuert"

    def test_weights_are_respected(self):
        # zero out everything except the ngram route: the ngram top hit wins
        pipeline = build_pipeline(weights=(0.0, 0.0, 1.0, 0.0))
        assert pipeline.normalize_token("Bischt") == "Biischt"

    def test_folded_variant_counts_every_casing_of_a_lemma(self):
        # gutt holds 5 of the 9 attestations of gudd in any casing, haus 4
        dictionary = VariantDictionary({"gutt": {"gudd": 3, "Gudd": 2}, "haus": {"gudd": 4}})
        pipeline = Pipeline(build_reverse_index(dictionary), Lexicon({"gutt": 5, "haus": 5}))
        assert pipeline.candidates("GUDD")["GUTT"][0] == 5 / 9
        assert pipeline.normalize_token("GUDD") == "GUTT"

    @given(
        st.dictionaries(st.text("abäA", min_size=1, max_size=4), st.integers(1, 4),
                        min_size=1, max_size=8),
        st.dictionaries(
            st.text("abäA", min_size=1, max_size=4),
            st.dictionaries(st.text("abäAB", min_size=1, max_size=4), st.integers(1, 4),
                            min_size=1, max_size=3),
            max_size=4,
        ),
        st.text("abäAB", min_size=1, max_size=5),
        st.tuples(*[st.sampled_from([0.0, 0.5, 1.0])] * 4),
    )
    @settings(max_examples=200, deadline=None)
    # every combined score is 0: ab and AB (3 in any casing) beat ba (2)
    @example({"ab": 2, "AB": 1, "ba": 2}, {}, "bb", (0.0, 0.0, 0.0, 0.0))
    # ab and ba tie on the variant route alone; ba is the more frequent
    @example({"ab": 1, "ba": 5}, {"ab": {"bb": 1}, "ba": {"bb": 1}}, "bb", (1.0, 0.0, 0.0, 0.0))
    # the case-restored BA ties with Ba on every component but the edit one
    @example({"Ba": 2, "ab": 1}, {"ba": {"bb": 1}}, "BB", (0.0, 0.0, 0.0, 1.0))
    def test_choice_matches_reference(self, counts, table, token, weights):
        lexicon = Lexicon(counts)
        config = PipelineConfig(weights)
        pipeline = Pipeline(build_reverse_index(VariantDictionary(table)), lexicon, config)
        expected = reference_choose(token, pipeline.candidates(token), weights, lexicon)
        assert pipeline._normalize_token(token) == expected


class TestNormalizeSentence:
    def test_empty_sentence(self):
        assert build_pipeline().normalize_sentence("") == ""

    def test_all_in_lexicon_unchanged(self):
        sentence = "Drénk gutt Mëllech ass gutt."
        assert build_pipeline().normalize_sentence(sentence) == sentence

    def test_corrupted_tokens_restored(self):
        pipeline = build_pipeline()
        assert pipeline.normalize_sentence("Drénk Mellech!") == "Drénk Mëllech!"

    def test_clitic_preserved(self):
        pipeline = build_pipeline()
        assert pipeline.normalize_sentence("d'Bischt ass gutt") == "d'Biischt ass gutt"

    def test_punctuation_untouched(self):
        pipeline = build_pipeline()
        # punctuation tokens survive, and so does the spacing around them
        assert pipeline.normalize_sentence("( Mellech , gutt )") == "( Mëllech , gutt )"
        assert pipeline.normalize_sentence("Mellech!") == "Mëllech!"

    @pytest.mark.parametrize("sentence", ['gesot "Moien"', "Hallo , Welt", "a  b\tc"])
    def test_known_words_keep_input_bytes(self, sentence):
        lexicon = Lexicon({word: 1 for word in ("gesot", "Moien", "Hallo", "Welt", "a", "b", "c")})
        pipeline = Pipeline(build_reverse_index(VariantDictionary({})), lexicon)
        assert pipeline.normalize_sentence(sentence) == sentence

    def test_quotes_stay_put_around_a_correction(self):
        dictionary = VariantDictionary({"Mëllech": {"Mellech": 1}})
        lexicon = Lexicon({"gesot": 1, "Mëllech": 1})
        pipeline = Pipeline(build_reverse_index(dictionary), lexicon)
        assert pipeline.normalize_sentence('gesot "Mellech"') == 'gesot "Mëllech"'

    def test_token_count_preserved(self):
        from luxnorm.tokenizer import tokenize

        pipeline = build_pipeline()
        sentence = "Drénk Mellech an nach eng Mellech!"
        assert len(tokenize(pipeline.normalize_sentence(sentence))) == len(tokenize(sentence))

    @given(st.lists(st.sampled_from(["gutt", "ass", "Mëllech", "Mellech", "?"]), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_when_output_covered(self, tokens):
        pipeline = build_pipeline()
        once = pipeline.normalize_sentence(" ".join(tokens))
        assert pipeline.normalize_sentence(once) == once

    @given(st.lists(st.sampled_from(["gutt", "ass", "Drénk", "Biischt"]), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_leave_known_alone(self, tokens):
        pipeline = build_pipeline()
        sentence = " ".join(tokens)
        assert pipeline.normalize_sentence(sentence) == sentence


class TestNormalizeLines:
    # repeated unknown types, clitics, punctuation, title case, a hyphen
    BATCH = [
        "d'Bischt ass gut, Mellech!",
        "l'Bischt an gut ( Millech ) ?",
        "Mellech gu-t Bischt.",
        "",
    ]

    @staticmethod
    def serial(lines: list[str]) -> list[str]:
        pipeline = build_pipeline()
        return [pipeline.normalize_sentence(line) for line in lines]

    def test_two_workers_match_serial(self, pool_starts):
        pipeline = build_pipeline()
        assert pipeline.normalize_lines(self.BATCH, workers=2) == self.serial(self.BATCH)
        assert pool_starts == [1]
        overlapping = self.BATCH[1:] + ["gut Drénk, l'Mellechs!"]
        assert pipeline.normalize_lines(overlapping, workers=2) == self.serial(overlapping)

    def test_empty_batch(self):
        assert build_pipeline().normalize_lines([], workers=2) == []

    def test_pickled_pipeline_drops_a_deep_trie(self):
        # spawn and forkserver pools pickle the pipeline, and the built
        # trie nests one dict per character of its longest form; so do its
        # tails, for the tail the two long forms share
        lexicon = Lexicon({"a" * 2000: 1, "b" + "a" * 1999: 1, "haus": 2})
        pipeline = no_variant_pipeline(lexicon)
        lexicon.deletes_index()
        copy = pickle.loads(pickle.dumps(pipeline))
        tokens = ["hauss", "Haus", "aaaa", "xyz"]
        assert [copy.normalize_token(t) for t in tokens] == [
            pipeline.normalize_token(t) for t in tokens
        ]


class TestCollectorPause:
    """The index builds pause automatic collection and restore the
    caller's setting, whatever it was."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_callers_setting(self, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with _collector_paused():
                assert not gc.isenabled()
            assert gc.isenabled() is enabled
            with pytest.raises(RuntimeError, match="inside"):
                with _collector_paused():
                    raise RuntimeError("inside")
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError, match="n-gram size"):
                NgramIndex(Lexicon({"haus": 1}), n=0)
            assert gc.isenabled() is enabled
            pipeline = build_pipeline()
            assert gc.isenabled() is enabled
            assert pipeline.lexicon.deletes_index()
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_built_index_goes_to_the_oldest_generation(self):
        assert gc.get_freeze_count() == 0
        trie = Lexicon({"haus": 1, "hunn": 2}).deletes_index()
        assert any(obj is trie for obj in gc.get_objects(generation=2))

    def test_frozen_objects_stay_frozen(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            Lexicon({"haus": 1, "hunn": 2}).deletes_index()
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()


IDENTITY_CMD = [sys.executable, "-c", "import sys; sys.stdout.write(sys.stdin.read())"]


class TestExternalNormalizer:
    def test_identity_command(self):
        sentences = ["eng Zeil", "nach eng Zeil"]
        assert run_external_normalizer(IDENTITY_CMD, sentences) == sentences

    def test_utf8_passes_through(self):
        sentences = ["Mëllech ë é „zitat“"]
        assert run_external_normalizer(IDENTITY_CMD, sentences) == sentences

    def test_fewer_lines_is_protocol_error(self):
        drop_one = [
            sys.executable,
            "-c",
            "import sys; lines = sys.stdin.read().splitlines(); print('\\n'.join(lines[:-1]))",
        ]
        with pytest.raises(ProtocolError, match="2 lines for 3 inputs"):
            run_external_normalizer(drop_one, ["a", "b", "c"])

    def test_nonzero_exit_is_protocol_error(self):
        fail = [sys.executable, "-c", "import sys; sys.exit(3)"]
        with pytest.raises(ProtocolError, match="status 3"):
            run_external_normalizer(fail, ["a"])

    def test_output_that_is_not_utf8_is_protocol_error(self):
        invalid = [sys.executable, "-c", "import sys; sys.stdout.buffer.write(b'\\xff\\n')"]
        with pytest.raises(ProtocolError, match="not UTF-8"):
            run_external_normalizer(invalid, ["a"])

    def test_exit_status_survives_stderr_that_is_not_utf8(self):
        script = "import sys; sys.stderr.buffer.write(b'model load failed \\xff'); sys.exit(1)"
        with pytest.raises(ProtocolError, match="status 1: model load failed \ufffd"):
            run_external_normalizer([sys.executable, "-c", script], ["a"])

    @pytest.mark.parametrize("end", ["\\r\\n", "\\r"])
    def test_carriage_returns_end_lines(self, end):
        script = f"import sys; sys.stdout.write('eent{end}zwee{end}')"
        assert run_external_normalizer([sys.executable, "-c", script], ["a", "b"]) == ["eent", "zwee"]

    def test_unlaunchable_command(self):
        with pytest.raises(ProtocolError, match="failed to launch"):
            run_external_normalizer(["/nonexistent/normalizer"], ["a"])

    def test_empty_batch_short_circuits(self):
        assert run_external_normalizer(["/nonexistent/normalizer"], []) == []
