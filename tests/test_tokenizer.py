from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from luxnorm.tokenizer import (
    PUNCT,
    apply_case_pattern,
    is_punctuation,
    is_token,
    splice,
    split_clitic,
    tokenize,
)
from oracles import reference_tokenize


class TestTokenize:
    def test_clitic_stays_attached_and_punctuation_splits(self):
        tokens = tokenize("Wou ass d'Bischt fir ze kieren?")
        assert tokens == ["Wou", "ass", "d'Bischt", "fir", "ze", "kieren", "?"]

    def test_empty_input(self):
        assert tokenize("") == []
        assert tokenize("   ") == []

    def test_plain_words(self):
        assert tokenize("a b") == ["a", "b"]

    @pytest.mark.parametrize(
        "sentence, expected",
        [
            ("Moien, Jang!", ["Moien", ",", "Jang", "!"]),
            ("„Wat soll dat?“", ["„", "Wat", "soll", "dat", "?", "“"]),
            ("(kuck emol)", ["(", "kuck", "emol", ")"]),
            ("En Auto...", ["En", "Auto", ".", ".", "."]),
            ("z'iessen ass gutt.", ["z'iessen", "ass", "gutt", "."]),
        ],
    )
    def test_punctuation_detachment(self, sentence, expected):
        assert tokenize(sentence) == expected

    def test_hyphens_and_inner_apostrophes_kept(self):
        assert tokenize("Nord-Süd Linn") == ["Nord-Süd", "Linn"]


# letters, every punctuation mark, in-word marks and assorted whitespace
_TEXT = "abëA" + PUNCT + "'-" + " \t\n\x1c\x85\xa0\u3000"
_WORD = st.text(alphabet="abëA'-", min_size=1, max_size=4)


class TestTokenizeMatchesReference:
    @given(st.text(alphabet=_TEXT, max_size=40))
    @settings(max_examples=500)
    @example('ar "nësdék iel"')
    @example("(a.b.) „x“ -'- ''")
    def test_same_tokens_as_chunk_peeling(self, sentence):
        assert tokenize(sentence) == reference_tokenize(sentence)


class TestIsToken:
    @given(st.text(alphabet=_TEXT, max_size=8))
    @settings(max_examples=500)
    @example("")
    @example(".")
    @example("asw.")
    @example("gutt a")
    @example("d'a-b")
    def test_exactly_what_tokenize_returns_whole(self, text):
        assert is_token(text) == (tokenize(text) == [text])


class TestSplice:
    @pytest.mark.parametrize(
        "sentence, replacements, expected",
        [
            ('gesot "Mellech"', ["gesot", '"', "Mëllech", '"'], 'gesot "Mëllech"'),
            ("( a , b )", ["(", "x", ",", "b", ")"], "( x , b )"),
            (" a\tb  ", ["a", "c"], " a\tc  "),
        ],
    )
    def test_replaces_in_place(self, sentence, replacements, expected):
        assert splice(sentence, tokenize(sentence), replacements) == expected

    def test_replacement_count_must_match(self):
        with pytest.raises(ValueError):
            splice("a b", ["a", "b"], ["a"])

    @given(st.text(alphabet=_TEXT, max_size=40))
    def test_identity_replacement_returns_input(self, sentence):
        tokens = tokenize(sentence)
        assert splice(sentence, tokens, tokens) == sentence

    @given(st.data())
    def test_output_tokenizes_to_replacements(self, data):
        sentence = data.draw(st.text(alphabet=_TEXT, max_size=40))
        tokens = tokenize(sentence)
        replacements = [
            token if is_punctuation(token) else data.draw(_WORD) for token in tokens
        ]
        assert tokenize(splice(sentence, tokens, replacements)) == replacements


class TestClitics:
    @pytest.mark.parametrize(
        "token, prefix, core",
        [
            ("d'Bischt", "d'", "Bischt"),
            ("D'Haus", "D'", "Haus"),
            ("l'Escaut", "l'", "Escaut"),
            ("z'iessen", "z'", "iessen"),
            ("Haus", "", "Haus"),
            ("d'", "", "d'"),
            ("o'clock", "", "o'clock"),
        ],
    )
    def test_split(self, token, prefix, core):
        assert split_clitic(token) == (prefix, core)

    @given(st.text(alphabet="dDlLmMtTzZaë'-" + PUNCT + " \t\n\r\x85", max_size=30))
    @settings(max_examples=300)
    @example("d' l'. (z'\nT'")
    def test_every_token_has_a_core(self, text):
        assert all(split_clitic(token)[1] for token in tokenize(text))


class TestPunctuationPredicate:
    def test_pure_punctuation(self):
        assert is_punctuation("?")
        assert is_punctuation("...")

    def test_words_are_not_punctuation(self):
        assert not is_punctuation("a.")
        assert not is_punctuation("")


class TestCasePattern:
    @pytest.mark.parametrize(
        "pattern, word, expected",
        [
            ("Mellech", "mëllech", "Mëllech"),
            ("MELLECH", "mëllech", "MËLLECH"),
            ("mellech", "Mëllech", "mëllech"),
            ("A", "op", "Op"),
            ("McDo", "mcdo", "mcdo"),  # mixed-case patterns pass through
            ("", "x", "x"),
        ],
    )
    def test_patterns(self, pattern, word, expected):
        assert apply_case_pattern(pattern, word) == expected
