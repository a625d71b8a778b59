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


# the minimum batch per worker in these tests
PER_WORKER = 4


class TestOrderedMap:
    @pytest.mark.parametrize(("workers", "count"), [(1, 37), (2, 37), (8, 3)])
    def test_keeps_input_order(self, pool_starts, workers, count):
        items = [(7 * i) % count for i in range(count)]
        assert list(ordered_map(_scaled, 3, items, workers, 1)) == [3 * i for i in items]
        assert pool_starts == ([] if workers == 1 else [min(workers, count)])

    @pytest.mark.parametrize("workers", [1, 4])
    def test_empty_batch_yields_nothing(self, workers):
        assert list(ordered_map(_scaled, 3, [], workers, 1)) == []

    def test_one_worker_or_one_item_runs_in_process(self, pool_starts):
        here = os.getpid()
        assert set(ordered_map(_pid, None, list(range(5)), 1, 1)) == {here}
        assert list(ordered_map(_pid, None, [0], 4, 1)) == [here]
        # fewer than two minimum batches: one worker's worth, so no pool
        small = list(range(2 * PER_WORKER - 1))
        assert set(ordered_map(_pid, None, small, 8, PER_WORKER)) == {here}
        assert pool_starts == []

    def test_two_minimum_batches_start_a_pool(self, pool_starts):
        items = list(range(2 * PER_WORKER))
        assert os.getpid() not in set(ordered_map(_pid, None, items, 2, PER_WORKER))
        assert pool_starts == [2]

    def test_workers_are_capped_by_minimum_batches(self, pool_starts):
        items = list(range(3 * PER_WORKER))
        pids = set(ordered_map(_pid, None, items, 8, PER_WORKER))
        assert pool_starts == [3]
        assert len(pids) <= 3 and os.getpid() not in pids

    def test_pool_runs_elsewhere(self):
        assert os.getpid() not in set(ordered_map(_pid, None, list(range(8)), 2, 1))


def _refuse_pickling(self, protocol):
    raise AssertionError("the variant dictionary was pickled")


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only forked workers receive the dictionary without pickling it",
)
def test_corrupt_workers_never_pickle_the_dictionary(monkeypatch, pool_starts):
    dictionary = make_dictionary({"gutt": {"gut": 1, "gutt": 1}, "Joer": {"Johr": 1}})
    lines = [f"e gutt Joer {i}" for i in range(200)]
    serial = list(iter_corrupted(lines, dictionary, seed=9))
    assert pool_starts == []
    monkeypatch.setattr(VariantDictionary, "__reduce_ex__", _refuse_pickling)
    assert list(iter_corrupted(lines, dictionary, seed=9, workers=2)) == serial
    assert pool_starts == [2]
