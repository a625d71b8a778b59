"""Tests of the benchmark's input generator, at the benchmark's own sizes.

    python3 -m pytest bench/test_gen.py
"""

from __future__ import annotations

from pathlib import Path

import pytest

import gen

SUITE = gen.suite_path(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """Files of every workload: seed 7 twice and seed 8 once."""
    def files(workload: str, seed: int, copy: str) -> dict[str, bytes]:
        directory = tmp_path_factory.mktemp(f"{workload}-{seed}-{copy}")
        inputs = gen.generate(workload, seed, directory, SUITE)
        return {name: path.read_bytes() for name, path in inputs.files.items()}

    return {
        workload: (files(workload, 7, "a"), files(workload, 7, "b"), files(workload, 8, "a"))
        for workload in gen.WORKLOADS
    }


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_files(generated, workload):
    first, again, _ = generated[workload]
    assert first == again


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_other_seed_gives_other_files(generated, workload):
    first, _, other = generated[workload]
    assert first.keys() == other.keys()
    for name in first:
        assert first[name] != other[name], name


def test_eval_lengths_do_not_depend_on_seed(generated):
    def gold_lengths(files: dict[str, bytes]) -> list[int]:
        return sorted(len(line.split()) for line in files["gold"].decode("utf-8").splitlines())

    first, _, other = generated["eval-long"]
    assert gold_lengths(first) == gold_lengths(other)


def test_noisy_side_keeps_token_count(generated):
    files, _, _ = generated["normalize-noisy"]
    noisy = files["noisy"].decode("utf-8").splitlines()
    gold = files["gold"].decode("utf-8").splitlines()
    assert len(noisy) == len(gold) == gen.SIZES["normalize-noisy"]["sentences"]
    assert [len(gen.split_tokens(n)) for n in noisy] == [len(gen.split_tokens(g)) for g in gold]
    assert sum(n != g for n, g in zip(noisy, gold)) > 0
