from __future__ import annotations

import multiprocessing
import os

import pytest

from conftest import make_dictionary
from luxnorm.corrupt import iter_corrupted
from luxnorm.dictionary import VariantDictionary
from luxnorm.parallel import ordered_map


def _scaled(state: int, item: int) -> int:
    return state * item


def _pid(state: None, item: int) -> int:
    return os.getpid()


class TestOrderedMap:
    @pytest.mark.parametrize(("workers", "count"), [(1, 37), (2, 37), (8, 3)])
    def test_keeps_input_order(self, workers, count):
        items = [(7 * i) % count for i in range(count)]
        assert list(ordered_map(_scaled, 3, items, workers)) == [3 * i for i in items]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_empty_batch_yields_nothing(self, workers):
        assert list(ordered_map(_scaled, 3, [], workers)) == []

    def test_one_worker_or_one_item_runs_in_process(self):
        here = os.getpid()
        assert set(ordered_map(_pid, None, list(range(5)), 1)) == {here}
        assert list(ordered_map(_pid, None, [0], 4)) == [here]

    def test_pool_runs_elsewhere(self):
        assert os.getpid() not in set(ordered_map(_pid, None, list(range(8)), 2))


def _refuse_pickling(self, protocol):
    raise AssertionError("the variant dictionary was pickled")


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only forked workers receive the dictionary without pickling it",
)
def test_corrupt_workers_never_pickle_the_dictionary(monkeypatch):
    dictionary = make_dictionary({"gutt": {"gut": 1, "gutt": 1}, "Joer": {"Johr": 1}})
    lines = [f"e gutt Joer {i}" for i in range(200)]
    serial = list(iter_corrupted(lines, dictionary, seed=9))
    monkeypatch.setattr(VariantDictionary, "__reduce_ex__", _refuse_pickling)
    assert list(iter_corrupted(lines, dictionary, seed=9, workers=2)) == serial
