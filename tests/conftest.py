from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import luxnorm

from luxnorm import corrupt, normalize, parallel
from luxnorm.dictionary import VariantDictionary


class PresetDraws:
    """A random stream that hands out preset uniforms in order."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self) -> float:
        return next(self._values)


def distant_vocabulary(rng: random.Random, size: int, min_distance: int = 3) -> list[str]:
    """Random lowercase words that are pairwise far apart in edit distance.

    Keeps fixture corpora unambiguous: a one-edit corruption of any word
    stays closer to its own lemma than to every other word.
    """
    from luxnorm.align import levenshtein

    alphabet = "abdeghiklmnorstuwäëéö"
    words: list[str] = []
    while len(words) < size:
        candidate = "".join(rng.choice(alphabet) for _ in range(rng.randint(5, 8)))
        if all(levenshtein(candidate, w) >= min_distance for w in words):
            words.append(candidate)
    return words


def mutate_word(rng: random.Random, word: str) -> str:
    """Substitute one character so the result differs from the input."""
    alphabet = "abdeghiklmnorstuwäëéö"
    pos = rng.randrange(len(word))
    replacement = rng.choice([c for c in alphabet if c != word[pos]])
    return word[:pos] + replacement + word[pos + 1:]


def run_python(args: list[str], timeout: float = 60) -> subprocess.CompletedProcess:
    """Run `python *args` in a child process that can import luxnorm.

    A child still running after `timeout` seconds fails the test, so a
    hang shows as a failure instead of stalling the suite.
    """
    src = str(Path(luxnorm.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    try:
        return subprocess.run([sys.executable, *args], capture_output=True, encoding="utf-8",
                              timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        pytest.fail(f"still running after {timeout} s: python {' '.join(args)}")


@pytest.fixture
def pool_starts(monkeypatch) -> list[int]:
    """Lower every caller's minimum batch to one item per worker, so small
    batches get a real pool, and record the process count of each pool that
    starts; the caller, which runs chunks too, is not counted."""
    starts: list[int] = []

    class RecordedPool(parallel.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            starts.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordedPool)
    monkeypatch.setattr(normalize, "NORMALIZE_PER_WORKER", 1)
    monkeypatch.setattr(corrupt, "CORRUPT_PER_WORKER", 1)
    return starts


@pytest.fixture
def tiny_dictionary() -> VariantDictionary:
    return VariantDictionary(
        {
            "Mëllech": {"Mellech": 120, "Millech": 30},
            "Haus": {"Haus": 5, "Hauss": 5},
            "kieren": {"kieren": 1},
        }
    )


@pytest.fixture
def workspace(tmp_path):
    """A small self-consistent workspace: dictionary, lexicon, eval corpus."""
    rng = random.Random(31)
    vocab = distant_vocabulary(rng, 20)
    variants = {w: mutate_word(rng, w) for w in vocab}
    dict_path = tmp_path / "variants.tsv"
    dict_path.write_text(
        "".join(f"{w}\t{v}\t1\n" for w, v in variants.items()), encoding="utf-8"
    )
    lexicon_path = tmp_path / "lexicon.tsv"
    lexicon_path.write_text("".join(f"{w}\t5\n" for w in vocab), encoding="utf-8")
    gold_lines = [" ".join(rng.choices(vocab, k=5)) + "." for _ in range(12)]
    orig_lines = []
    for line in gold_lines:
        tokens = line[:-1].split()
        corrupt_at = rng.randrange(len(tokens))
        tokens[corrupt_at] = variants[tokens[corrupt_at]]
        orig_lines.append(" ".join(tokens) + ".")
    orig_path = tmp_path / "orig.txt"
    gold_path = tmp_path / "gold.txt"
    orig_path.write_text("".join(l + "\n" for l in orig_lines), encoding="utf-8")
    gold_path.write_text("".join(l + "\n" for l in gold_lines), encoding="utf-8")
    corpus_path = tmp_path / "corpus.txt"
    corpus_path.write_text("".join(l + "\n" for l in gold_lines), encoding="utf-8")
    return {
        "dir": tmp_path,
        "dict": dict_path,
        "lexicon": lexicon_path,
        "orig": orig_path,
        "gold": gold_path,
        "corpus": corpus_path,
    }
