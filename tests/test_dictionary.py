from __future__ import annotations

import pytest

from conftest import PresetDraws
from luxnorm.cli import EXIT_OK, main
from luxnorm.corrupt import corrupt_sentence
from luxnorm.dictionary import (
    ReverseIndex,
    VariantDictionary,
    build_reverse_index,
    load_dictionary,
)
from luxnorm.errors import DictionaryLookupError, ParseError


def write_dict(tmp_path, text: str):
    path = tmp_path / "variants.tsv"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDictionary:
    def test_counts_become_probabilities(self, tmp_path):
        # synth draws variant i for exactly count_i of the draws u = k/total
        path = write_dict(tmp_path, "Mëllech\tMellech\t120\nMëllech\tMillech\t30\n")
        dictionary = load_dictionary(path)
        assert len(dictionary) == 1
        draws = [k / 150 for k in range(150)]
        sources = [corrupt_sentence("Mëllech", dictionary, PresetDraws([u])).source for u in draws]
        assert sources.count("Mellech") == 120
        assert sources.count("Millech") == 30

    def test_identity_variant(self, tmp_path):
        dictionary = load_dictionary(write_dict(tmp_path, "a\ta\t5\n"))
        assert len(dictionary) == 1
        assert dictionary.variants("a") == {"a": 5}
        assert dictionary.total_count("a") == 5

    def test_duplicate_lines_sum_counts(self, tmp_path):
        dictionary = load_dictionary(write_dict(tmp_path, "x\ty\t2\nx\ty\t2\n"))
        assert dictionary.variants("x") == {"y": 4}

    def test_variants_keep_first_seen_order(self, tmp_path, capsys):
        # neither alphabetical nor by count: the file's order fixes which
        # variant each seeded draw picks
        path = write_dict(tmp_path, "x\tc\t1\nx\tb\t3\nx\tc\t1\n")
        dictionary = load_dictionary(path)
        assert list(dictionary.variants("x").items()) == [("c", 2), ("b", 3)]
        sources = [corrupt_sentence("x", dictionary, PresetDraws([k / 5])).source for k in range(5)]
        assert sources == ["c", "c", "b", "b", "b"]
        assert main(["dict", "validate", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "variant_entries\t2" in lines and "total_count\t5" in lines

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


class TestReverseIndex:
    def test_single_entry(self):
        index = build_reverse_index(VariantDictionary({"A": {"x": 3}}))
        assert index.lookup("x") == [("A", 3)]

    def test_count_descending_order(self):
        index = build_reverse_index(VariantDictionary({"A": {"x": 3}, "B": {"x": 5}}))
        assert index.lookup("x") == [("B", 5), ("A", 3)]

    def test_every_lemma_round_trips(self, tiny_dictionary):
        index = build_reverse_index(tiny_dictionary)
        for lemma in tiny_dictionary.lemmas():
            for variant, count in tiny_dictionary.variants(lemma).items():
                assert (lemma, count) in index.lookup(variant)

    def test_index_pairs_exist_in_forward_dictionary(self, tiny_dictionary):
        index = build_reverse_index(tiny_dictionary)
        variants = {variant for lemma in tiny_dictionary.lemmas()
                    for variant in tiny_dictionary.variants(lemma)}
        for variant in variants:
            for lemma, count in index.lookup(variant):
                assert tiny_dictionary.variants(lemma).get(variant) == count

    def test_folded_lookup_merges_casings(self):
        index = build_reverse_index(
            VariantDictionary({"Mëllech": {"Mellech": 120}, "mëllechzocker": {"mellech": 2}})
        )
        assert index.lookup_folded("MELLECH") == [("Mëllech", 120), ("mëllechzocker", 2)]

    def test_folded_lookup_sums_a_lemmas_casings(self):
        index = build_reverse_index(
            VariantDictionary({"gutt": {"gudd": 3, "Gudd": 2}, "haus": {"gudd": 4}})
        )
        assert index.lookup_folded("GUDD") == [("gutt", 5), ("haus", 4)]
        assert index.lookup("gudd") == [("haus", 4), ("gutt", 3)]

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

    def test_unknown_lemma_raises(self, tiny_dictionary):
        with pytest.raises(DictionaryLookupError):
            tiny_dictionary.variants("fehlt")
        with pytest.raises(DictionaryLookupError):
            tiny_dictionary.total_count("fehlt")

    def test_fold_prefers_higher_total_count(self):
        dictionary = VariantDictionary({"Fall": {"fal": 1}, "fall": {"fann": 9}})
        assert dictionary.resolve("FALL") == "fall"


class TestValidation:
    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            VariantDictionary({"a": {"x": 0}})

    def test_rejects_empty_lemma(self):
        with pytest.raises(ValueError):
            VariantDictionary({"": {"x": 1}})

    @pytest.mark.parametrize("lemma", ["gutt a", "asw.", "(gutt"])
    def test_lemma_must_be_one_token(self, tmp_path, lemma):
        # normalize writes a lemma in one token's place
        with pytest.raises(ValueError, match="not one token"):
            VariantDictionary({"ass": {"as": 1}, lemma: {"guta": 1}})
        path = write_dict(tmp_path, f"ass\tas\t1\n{lemma}\tguta\t1\n")
        with pytest.raises(ParseError, match="not one token") as excinfo:
            load_dictionary(path)
        assert excinfo.value.line == 2

    def test_rejects_tab_in_variant(self):
        with pytest.raises(ValueError):
            VariantDictionary({"a": {"x\ty": 1}})
