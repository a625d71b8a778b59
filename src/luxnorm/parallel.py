"""Order-preserving map over a process pool, with per-worker state.

`ordered_map(fn, state, items, workers, per_worker)` yields
`fn(state, item)` for each item, in input order. `workers` is an upper
bound: a pool gets at most one worker per `per_worker` items, the caller's
measured minimum batch for a worker to pay for its start, and a batch too
small for two workers runs in process. The pool initializer hands each
worker `fn` and `state` once, so large state (a variant dictionary, a
whole pipeline) is never pickled per chunk. `fn` must be a module-level
function, so that it can be sent to a worker under any start method.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterator, Sequence

# (fn, state) of a pool worker process, set once by the pool initializer
_task: tuple[Callable[[Any, Any], Any], Any] | None = None


def _install(fn: Callable[[Any, Any], Any], state: Any) -> None:
    global _task
    _task = (fn, state)


def _apply(item: Any) -> Any:
    fn, state = _task
    return fn(state, item)


def ordered_map(
    fn: Callable[[Any, Any], Any], state: Any, items: Sequence[Any], workers: int, per_worker: int
) -> Iterator[Any]:
    """Yield `fn(state, item)` per item in order; on a pool of
    `min(workers, len(items) // per_worker)` processes when that is two or
    more, else in process."""
    workers = min(workers, len(items) // per_worker)
    if workers <= 1:
        for item in items:
            yield fn(state, item)
        return
    chunksize = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(workers, initializer=_install, initargs=(fn, state)) as pool:
        yield from pool.map(_apply, items, chunksize=chunksize)
