from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from luxnorm.corrupt import iter_corrupted
from luxnorm.dictionary import VariantDictionary
from luxnorm.parallel import ordered_map


def _scaled(state: int, item: int) -> int:
    return state * item


def _pid(state: None, item: int) -> int:
    return os.getpid()


def _timed(state: tuple[int, bool, int | None], item: int) -> tuple[int, int]:
    """(item, pid), after a sleep in a pool process (`pool_sleeps`) or in
    the caller (not `pool_sleeps`); raises on item `fail_at`."""
    caller, pool_sleeps, fail_at = state
    if (os.getpid() != caller) == pool_sleeps:
        time.sleep(0.05)
    if item == fail_at:
        raise ValueError(f"item {item} on {os.getpid()}")
    return item, os.getpid()


def assert_shared(pids: list[int], workers: int) -> None:
    """The first chunk ran in a pool process, and the items on at most
    `workers` processes, the caller's included."""
    here = os.getpid()
    assert pids[0] != here
    assert len(set(pids) | {here}) <= workers


# the minimum batch per worker in these tests
PER_WORKER = 4


class TestOrderedMap:
    @pytest.mark.parametrize(("workers", "count"), [(1, 37), (2, 37), (8, 3)])
    def test_keeps_input_order(self, pool_starts, workers, count):
        items = [(7 * i) % count for i in range(count)]
        assert list(ordered_map(_scaled, 3, items, workers, 1)) == [3 * i for i in items]
        assert pool_starts == ([] if workers == 1 else [min(workers, count) - 1])

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
        assert_shared(list(ordered_map(_pid, None, items, 2, PER_WORKER)), 2)
        assert pool_starts == [1]

    def test_workers_are_capped_by_minimum_batches(self, pool_starts):
        items = list(range(3 * PER_WORKER))
        assert_shared(list(ordered_map(_pid, None, items, 8, PER_WORKER)), 3)
        assert pool_starts == [2]

    def test_pool_runs_elsewhere(self):
        assert_shared(list(ordered_map(_pid, None, list(range(8)), 2, 1)), 2)


# On two processes, 16 items make eight chunks of two, and the pool's first
# two chunks hold items 0-3. While the pool sleeps, the caller runs the
# chunks from items 4-5 on.
ORDERED = [(7 * i) % 16 for i in range(16)]


class TestScheduler:
    @pytest.mark.parametrize("pool_sleeps", [True, False])
    def test_order_holds_when_one_side_is_slow(self, pool_sleeps):
        here = os.getpid()
        results = list(ordered_map(_timed, (here, pool_sleeps, None), ORDERED, 2, 1))
        assert [item for item, _ in results] == ORDERED
        assert_shared([pid for _, pid in results], 2)
        if pool_sleeps:
            assert [pid for _, pid in results][4:] == [here] * 12

    @pytest.mark.parametrize(("fail_at", "in_pool"), [(2, True), (4, False)])
    def test_a_failed_chunk_raises_after_every_earlier_result(self, fail_at, in_pool):
        here = os.getpid()
        results = ordered_map(_timed, (here, True, fail_at), list(range(16)), 2, 1)
        yielded = []
        with pytest.raises(ValueError, match=f"item {fail_at} on ") as failure:
            for item, _ in results:
                yielded.append(item)
        assert yielded == list(range(fail_at))
        assert (str(failure.value) != f"item {fail_at} on {here}") == in_pool

    def test_closing_early_stops_the_pool(self):
        results = ordered_map(_scaled, 3, list(range(64)), 2, 1)
        assert next(results) == 0
        results.close()
        assert multiprocessing.active_children() == []


def _refuse_pickling(self, protocol):
    raise AssertionError("the variant dictionary was pickled")


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only forked workers receive the dictionary without pickling it",
)
def test_corrupt_workers_never_pickle_the_dictionary(monkeypatch, pool_starts):
    dictionary = VariantDictionary({"gutt": {"gut": 1, "gutt": 1}, "Joer": {"Johr": 1}})
    lines = [f"e gutt Joer {i}" for i in range(200)]
    serial = list(iter_corrupted(lines, dictionary, seed=9))
    assert pool_starts == []
    monkeypatch.setattr(VariantDictionary, "__reduce_ex__", _refuse_pickling)
    assert list(iter_corrupted(lines, dictionary, seed=9, workers=2)) == serial
    assert pool_starts == [1]
