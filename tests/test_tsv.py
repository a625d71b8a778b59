"""The dictionary, lexicon and suite files share one TSV reader: blank and
`#` lines are skipped, and field-count and integer errors read alike."""

from __future__ import annotations

import pytest

from luxnorm.checklist import load_suite
from luxnorm.dictionary import load_dictionary
from luxnorm.errors import ParseError
from luxnorm.normalize import load_lexicon

NAMES = ["dictionary", "lexicon", "suite"]


@pytest.mark.parametrize(
    "load, width", [(load_dictionary, 3), (load_lexicon, 2), (load_suite, 7)], ids=NAMES
)
def test_field_count_error_names_width_and_line(tmp_path, load, width):
    path = tmp_path / "data.tsv"
    path.write_text("# header\n\nonly-one-field\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load(path)
    assert str(excinfo.value) == f"{path}:3: expected {width} tab-separated fields, got 1"
    assert excinfo.value.line == 3


@pytest.mark.parametrize(
    "load, text, message",
    [
        (load_dictionary, "a\tb\tx\n", "count is not an integer: 'x'"),
        (load_lexicon, "Haus\t4.5\n", "count is not an integer: '4.5'"),
        (
            load_suite,
            "Cat\tCORRECT\tAlles gutt.\tone\tx\tgloss\tcore\n",
            "target_index is not an integer: 'one'",
        ),
    ],
    ids=NAMES,
)
def test_integer_field_error_keeps_its_text(tmp_path, load, text, message):
    path = tmp_path / "data.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load(path)
    assert str(excinfo.value) == f"{path}:1: {message}"


def test_dictionary_skips_blank_lines(tmp_path):
    path = tmp_path / "variants.tsv"
    path.write_text("\na\tb\t1\n\n# note\na\tc\t2\n\n", encoding="utf-8")
    dictionary = load_dictionary(path)
    assert list(dictionary.variants("a").items()) == [("b", 1), ("c", 2)]


def test_lexicon_skips_blank_lines(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("Haus\t4\n\nBam\t2\n\n", encoding="utf-8")
    lexicon = load_lexicon(path)
    assert (len(lexicon), lexicon.count("Haus"), lexicon.count("Bam")) == (2, 4, 2)


@pytest.mark.parametrize("load", [load_dictionary, load_lexicon, load_suite], ids=NAMES)
def test_only_blank_and_comment_lines_is_empty(tmp_path, load):
    path = tmp_path / "data.tsv"
    path.write_text("\n# header\n\n", encoding="utf-8")
    with pytest.raises(ParseError, match="contains no"):
        load(path)
