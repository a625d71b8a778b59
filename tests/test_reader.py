"""Every input is read by one rule: UTF-8 with a leading byte-order mark
dropped, and LF, CR LF or CR ending a line. A file written with a BOM or
with either carriage-return line end reads as its plain LF copy does, and
bytes that are not UTF-8 are reported with the file and the line."""

from __future__ import annotations

import json
import sys

import pytest

from luxnorm import experiment
from luxnorm.checklist import load_suite
from luxnorm.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from luxnorm.config import build_config
from luxnorm.dictionary import load_dictionary
from luxnorm.errors import ParseError, read_lines, split_lines
from luxnorm.experiment import run_external_normalizer
from luxnorm.normalize import load_lexicon

BOM = "\ufeff"

# (byte-order mark, line end) of each way of writing a file
ENCODINGS = {"bom": (BOM, "\n"), "crlf": ("", "\r\n"), "cr": ("", "\r"), "bom-crlf": (BOM, "\r\n")}


def rewrite(path, bom: str, end: str) -> None:
    """Rewrite the LF text file `path` with `bom` in front and `end` ending each line."""
    lines = path.read_bytes().decode("utf-8").split("\n")
    path.write_bytes((bom + end.join(lines)).encode("utf-8"))


# each reader, the lines of a file it reads, and what it makes of them, compared
READERS = {
    "lexicon": (
        load_lexicon,
        ["haus\t3", "# note", "", "Bam\t2"],
        lambda lexicon: {word: lexicon.count(word) for word in lexicon},
    ),
    "dictionary": (
        load_dictionary,
        ["haus\thaus\t3", "", "haus\thuss\t1", "gutt\tgudd\t2"],
        lambda dictionary: {lemma: dictionary.variants(lemma) for lemma in dictionary.lemmas()},
    ),
    "suite": (
        load_suite,
        ["Cat\tCORRECT\tAlles gut.\t1\tgutt\tgloss\tcore",
         "Cat\tPRESERVE\tAlles gutt.\t\t\t\tcore"],
        lambda suite: suite.units,
    ),
    "lines": (read_lines, ["Moien,", "", "wéi geet et?"], lambda lines: lines),
}


@pytest.mark.parametrize("encoding", list(ENCODINGS))
@pytest.mark.parametrize("reader", list(READERS))
def test_file_reads_as_its_plain_copy(tmp_path, reader, encoding):
    load, lines, summary = READERS[reader]
    plain, other = tmp_path / "plain.txt", tmp_path / "other.txt"
    for path in (plain, other):
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    rewrite(other, *ENCODINGS[encoding])
    assert summary(load(other)) == summary(load(plain))


@pytest.mark.parametrize("reader", list(READERS))
def test_bytes_that_are_not_utf8_name_the_file_and_line(tmp_path, reader):
    # the lines before the bad byte end in LF, CR and CR LF, after a BOM
    load, lines, _ = READERS[reader]
    ends = ["\n", "\r", "\r\n"] * len(lines)
    text = BOM + "".join(line + end for line, end in zip(lines[:-1], ends)) + lines[-1]
    path = tmp_path / "bad.txt"
    path.write_bytes(text.encode("utf-8") + b"\xff\n")
    with pytest.raises(ParseError) as excinfo:
        load(path)
    assert (excinfo.value.path, excinfo.value.line) == (str(path), len(lines))
    assert str(excinfo.value) == f"{path}:{len(lines)}: not valid UTF-8: invalid start byte"


def test_eval_file_that_is_not_utf8_is_a_data_error(workspace, capsys):
    orig = workspace["orig"]
    lines = orig.read_bytes().split(b"\n")
    orig.write_bytes(b"\n".join([lines[0], b"\xff" + lines[1], *lines[2:]]))
    triple = ("--orig", orig, "--pred", workspace["gold"], "--gold", workspace["gold"])
    assert main(["eval", *map(str, triple)]) == EXIT_DATA
    assert f"{orig}:2: not valid UTF-8" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"seed": 7,\r\n "normalizer": "\xff"}\n')
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert f"config file {path} is not valid UTF-8: line 2" in capsys.readouterr().err


def test_lexicon_word_after_a_bom_is_known(tmp_path):
    path = tmp_path / "lexicon.tsv"
    path.write_text(BOM + "haus\t3\n", encoding="utf-8")
    assert "haus" in load_lexicon(path)


def test_line_ends():
    assert split_lines("a\r\n\rb\n\n") == ["a", "", "b", ""]
    assert split_lines("a") == split_lines("a\r") == ["a"]
    assert split_lines("") == []


def test_experiment_reads_lines_with_the_same_reader():
    assert experiment.read_lines is read_lines


def test_bom_inside_a_file_is_kept(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text(f"{BOM}a\n{BOM}b\n", encoding="utf-8")
    assert read_lines(path) == ["a", f"{BOM}b"]


@pytest.mark.parametrize("encoding", list(ENCODINGS))
def test_eval_files(workspace, tmp_path, encoding):
    triple = ("--orig", workspace["orig"], "--pred", workspace["orig"], "--gold", workspace["gold"])
    plain = tmp_path / "plain.json"
    assert main(["eval", *map(str, triple), "--report", str(plain)]) == EXIT_OK
    for path in (workspace["orig"], workspace["gold"]):
        rewrite(path, *ENCODINGS[encoding])
    other = tmp_path / "other.json"
    assert main(["eval", *map(str, triple), "--report", str(other)]) == EXIT_OK
    assert other.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("encoding", list(ENCODINGS))
def test_predictions_file(workspace, tmp_path, encoding):
    def run(name):
        out_dir = tmp_path / name
        argv = ["run", "--normalizer", "identity", "--eval-orig", str(workspace["orig"]),
                "--eval-gold", str(workspace["gold"]), "--pred", str(workspace["gold"]),
                "--out-dir", str(out_dir)]
        assert main(argv) == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        return report["metrics"], (out_dir / "predictions.txt").read_bytes()

    plain = run("plain")
    rewrite(workspace["gold"], *ENCODINGS[encoding])
    assert run("other") == plain
    assert plain[0]["err"] == 1.0


def test_config_file_with_a_bom(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(BOM + json.dumps({"seed": 7, "normalizer": "identity"}), encoding="utf-8")
    config = build_config({}, config_file=path)
    assert (config.seed, config.normalizer) == (7, "identity")


def test_external_normalizer_that_writes_a_bom():
    script = "import sys; sys.stdout.write('\\ufeff' + sys.stdin.read())"
    sentences = ["eent", "zwee"]
    assert run_external_normalizer([sys.executable, "-c", script], sentences) == sentences

