"""Order-preserving map over worker processes, with per-worker state.

`ordered_map(fn, state, items, workers, per_worker)` yields
`fn(state, item)` for each item, in input order. `workers` is an upper
bound on the processes that share the items, the calling process
included: there is at most one per `per_worker` items, the caller's
measured minimum batch for a worker to pay for its start, and a batch too
small for two runs in process.

For W processes, a pool of W - 1 is started and the items are cut into
chunks, assigned in input order. Each pool process has at most two chunks
in flight. Whenever the next chunk to yield is still running in the pool,
the caller runs the next unassigned chunk itself and holds its results
until their turn. As with `Executor.map`, a chunk that raises yields none
of its results, and its exception is raised only once every earlier chunk
has been yielded.

The pool initializer hands each pool process `fn`, `state` and the items
once, so large state (a variant dictionary, a whole pipeline) is never
pickled per chunk, and a chunk is sent as its bounds. `fn` must be a
module-level function or a method of a module-level class, which pickle by
name, so that it can be sent to a pool process under any start method.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Iterator, Sequence

# (fn, state, items) of a pool worker process, set once by the pool initializer
_task: tuple[Callable[[Any, Any], Any], Any, Sequence[Any]] | None = None


def _install(fn: Callable[[Any, Any], Any], state: Any, items: Sequence[Any]) -> None:
    global _task
    _task = (fn, state, items)


def _run_chunk(start: int, stop: int) -> list[Any]:
    fn, state, items = _task
    return [fn(state, item) for item in items[start:stop]]


def _run_here(
    fn: Callable[[Any, Any], Any], state: Any, items: Sequence[Any], start: int, stop: int
) -> Future:
    """Run one chunk in the calling process; a failure is held, not raised."""
    done: Future = Future()
    try:
        done.set_result([fn(state, item) for item in items[start:stop]])
    except Exception as error:
        done.set_exception(error)
    return done


def ordered_map(
    fn: Callable[[Any, Any], Any], state: Any, items: Sequence[Any], workers: int, per_worker: int
) -> Iterator[Any]:
    """Yield `fn(state, item)` per item in order, on the caller and a pool
    of `min(workers, len(items) // per_worker) - 1` processes when that
    pool has one or more, else in process."""
    workers = min(workers, len(items) // per_worker)
    if workers <= 1:
        for item in items:
            yield fn(state, item)
        return
    size = max(1, len(items) // (workers * 4))
    bounds = [(start, start + size) for start in range(0, len(items), size)]
    most_in_flight = 2 * (workers - 1)
    pool = ProcessPoolExecutor(workers - 1, initializer=_install, initargs=(fn, state, items))
    try:
        chunks: list[Future | None] = []  # per assigned chunk; None once yielded
        for position in range(len(bounds)):
            while True:
                in_flight = sum(not chunk.done() for chunk in chunks[position:])
                while len(chunks) < len(bounds) and in_flight < most_in_flight:
                    chunks.append(pool.submit(_run_chunk, *bounds[len(chunks)]))
                    in_flight += 1
                if chunks[position].done() or len(chunks) == len(bounds):
                    break
                chunks.append(_run_here(fn, state, items, *bounds[len(chunks)]))
            results = chunks[position].result()
            chunks[position] = None
            yield from results
    finally:
        pool.shutdown(cancel_futures=True)
