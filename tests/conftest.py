from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import luxnorm

from luxnorm.dictionary import VariantDictionary, VariantEntry


def make_dictionary(table: dict[str, dict[str, int]]) -> VariantDictionary:
    """Build a VariantDictionary from {lemma: {variant: count}}."""
    return VariantDictionary(
        {
            lemma: [VariantEntry(v, c) for v, c in variants.items()]
            for lemma, variants in table.items()
        }
    )


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
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        pytest.fail(f"still running after {timeout} s: python {' '.join(args)}")


@pytest.fixture
def tiny_dictionary() -> VariantDictionary:
    return make_dictionary(
        {
            "Mëllech": {"Mellech": 120, "Millech": 30},
            "Haus": {"Haus": 5, "Hauss": 5},
            "kieren": {"kieren": 1},
        }
    )
