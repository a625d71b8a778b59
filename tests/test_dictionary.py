from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dictionary
from luxnorm.dictionary import (
    ReverseIndex,
    VariantDictionary,
    VariantEntry,
    build_reverse_index,
    load_dictionary,
)
from luxnorm.errors import DictionaryLookupError, ParseError
from oracles import reference_pick_index


def write_dict(tmp_path, text: str):
    path = tmp_path / "variants.tsv"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDictionary:
    def test_counts_become_probabilities(self, tmp_path):
        path = write_dict(tmp_path, "Mëllech\tMellech\t120\nMëllech\tMillech\t30\n")
        dictionary = load_dictionary(path)
        assert len(dictionary) == 1
        probs = dictionary.probabilities("Mëllech")
        assert probs == {"Mellech": Fraction(4, 5), "Millech": Fraction(1, 5)}

    def test_identity_variant(self, tmp_path):
        dictionary = load_dictionary(write_dict(tmp_path, "a\ta\t5\n"))
        assert len(dictionary) == 1
        assert dictionary.probabilities("a") == {"a": Fraction(1)}

    def test_duplicate_lines_sum_counts(self, tmp_path):
        dictionary = load_dictionary(write_dict(tmp_path, "x\ty\t2\nx\ty\t2\n"))
        assert dictionary.variants("x") == [VariantEntry("y", 4)]

    def test_comments_ignored(self, tmp_path):
        dictionary = load_dictionary(write_dict(tmp_path, "# header\na\tb\t1\n"))
        assert "a" in dictionary

    @pytest.mark.parametrize(
        "content, fragment",
        [
            ("a\tb\n", "3 tab-separated fields"),
            ("a\tb\tc\td\n", "3 tab-separated fields"),
            ("a\tb\t0\n", "non-positive"),
            ("a\tb\t-2\n", "non-positive"),
            ("a\tb\tx\n", "not an integer"),
            ("\tb\t1\n", "empty lemma"),
            ("a\t\t1\n", "empty variant"),
            ("", "no entries"),
            ("# only a comment\n", "no entries"),
        ],
    )
    def test_malformed_input_rejected(self, tmp_path, content, fragment):
        with pytest.raises(ParseError) as excinfo:
            load_dictionary(write_dict(tmp_path, content))
        assert fragment in str(excinfo.value)

    def test_parse_error_carries_line_number(self, tmp_path):
        with pytest.raises(ParseError) as excinfo:
            load_dictionary(write_dict(tmp_path, "a\tb\t1\nbroken line\n"))
        assert excinfo.value.line == 2


class TestSampling:
    def test_single_variant_is_deterministic(self, tmp_path):
        dictionary = load_dictionary(write_dict(tmp_path, "a\tb\t7\n"))
        rng = random.Random(0)
        assert all(dictionary.sample_variant("a", rng) == "b" for _ in range(20))

    def test_unknown_lemma_raises(self, tiny_dictionary):
        with pytest.raises(DictionaryLookupError):
            tiny_dictionary.sample_variant("fehlt", random.Random(0))

    def test_empirical_frequencies_match_counts(self):
        dictionary = make_dictionary({"w": {"a": 80, "b": 20}})
        rng = random.Random(42)
        draws = [dictionary.sample_variant("w", rng) for _ in range(10_000)]
        assert abs(draws.count("a") / 10_000 - 0.8) <= 0.02
        assert abs(draws.count("b") / 10_000 - 0.2) <= 0.02

    def test_same_seed_same_sequence(self, tiny_dictionary):
        first = [tiny_dictionary.sample_variant("Mëllech", random.Random(9)) for _ in range(1)]
        runs = [
            [tiny_dictionary.sample_variant("Mëllech", rng) for _ in range(50)]
            for rng in (random.Random(123), random.Random(123))
        ]
        assert runs[0] == runs[1]
        assert first  # smoke: sampling returned something

    def test_pick_variant_covers_whole_unit_interval(self):
        dictionary = make_dictionary({"w": {"a": 1, "b": 1}})
        assert dictionary.pick_variant("w", 0.0) == "a"
        assert dictionary.pick_variant("w", 0.4999) == "a"
        assert dictionary.pick_variant("w", 0.5) == "b"
        assert dictionary.pick_variant("w", 0.999999) == "b"

    @given(st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pick_variant_boundaries_match_running_total_walk(self, counts, data):
        # at u = k/total and just below it, the binary search over running
        # counts picks what the walk over the counts picks
        dictionary = make_dictionary({"w": {f"v{i}": c for i, c in enumerate(counts)}})
        total = sum(counts)
        running = [sum(counts[: i + 1]) for i in range(len(counts))]
        ks = {k + d for k in [0, *running] for d in (-1, 0, 1) if 0 <= k + d <= total}
        ks.update(data.draw(st.lists(st.integers(0, total), max_size=20)))
        for k in sorted(ks):
            for u in (k / total, math.nextafter(k / total, 0)):
                expected = f"v{reference_pick_index(counts, u)}"
                assert dictionary.pick_variant("w", u) == expected, (k, u)

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_probabilities_sum_to_one(self, c1, c2):
        dictionary = make_dictionary({"w": {"a": c1, "b": c2}})
        assert sum(dictionary.probabilities("w").values()) == 1


class TestReverseIndex:
    def test_single_entry(self):
        index = build_reverse_index(make_dictionary({"A": {"x": 3}}))
        assert index.lookup("x") == [("A", 3)]

    def test_count_descending_order(self):
        index = build_reverse_index(make_dictionary({"A": {"x": 3}, "B": {"x": 5}}))
        assert index.lookup("x") == [("B", 5), ("A", 3)]

    def test_every_lemma_round_trips(self, tiny_dictionary):
        index = build_reverse_index(tiny_dictionary)
        for lemma in tiny_dictionary.lemmas():
            for entry in tiny_dictionary.variants(lemma):
                assert (lemma, entry.count) in index.lookup(entry.variant)

    def test_index_pairs_exist_in_forward_dictionary(self, tiny_dictionary):
        index = build_reverse_index(tiny_dictionary)
        for variant, lemmas in index.items():
            for lemma, count in lemmas:
                assert VariantEntry(variant, count) in tiny_dictionary.variants(lemma)

    def test_folded_lookup_merges_casings(self):
        index = build_reverse_index(
            make_dictionary({"Mëllech": {"Mellech": 120}, "mëllechzocker": {"mellech": 2}})
        )
        assert index.lookup_folded("MELLECH") == [("Mëllech", 120), ("mëllechzocker", 2)]

    def test_unknown_variant_is_empty(self, tiny_dictionary):
        assert build_reverse_index(tiny_dictionary).lookup("gibberish") == []


class TestResolve:
    def test_exact_match_wins(self, tiny_dictionary):
        assert tiny_dictionary.resolve("Mëllech") == "Mëllech"

    def test_case_folded_fallback(self, tiny_dictionary):
        assert tiny_dictionary.resolve("mëllech") == "Mëllech"
        assert tiny_dictionary.resolve("MËLLECH") == "Mëllech"

    def test_unknown_token(self, tiny_dictionary):
        assert tiny_dictionary.resolve("Onbekannt") is None

    def test_fold_prefers_higher_total_count(self):
        dictionary = make_dictionary({"Fall": {"fal": 1}, "fall": {"fann": 9}})
        assert dictionary.resolve("FALL") == "fall"


class TestValidation:
    def test_rejects_duplicate_variants(self):
        with pytest.raises(ValueError):
            VariantDictionary({"a": [VariantEntry("x", 1), VariantEntry("x", 2)]})

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            VariantDictionary({"a": [VariantEntry("x", 0)]})

    def test_rejects_empty_lemma(self):
        with pytest.raises(ValueError):
            VariantDictionary({"": [VariantEntry("x", 1)]})

    def test_rejects_tab_in_variant(self):
        with pytest.raises(ValueError):
            VariantDictionary({"a": [VariantEntry("x\ty", 1)]})
