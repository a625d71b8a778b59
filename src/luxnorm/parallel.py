"""Order-preserving map over a process pool, with per-worker state.

`ordered_map(fn, state, items, workers)` yields `fn(state, item)` for each
item, in input order. The pool initializer hands each worker `fn` and
`state` once, so large state (a variant dictionary, a whole pipeline) is
never pickled per chunk. `fn` must be a module-level function, so that it
can be sent to a worker under any start method.
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
    fn: Callable[[Any, Any], Any], state: Any, items: Sequence[Any], workers: int
) -> Iterator[Any]:
    """Yield `fn(state, item)` per item in order; in process for one worker
    or one item, else on a pool of `min(workers, len(items))` processes."""
    if workers <= 1 or len(items) <= 1:
        for item in items:
            yield fn(state, item)
        return
    workers = min(workers, len(items))
    chunksize = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(workers, initializer=_install, initargs=(fn, state)) as pool:
        yield from pool.map(_apply, items, chunksize=chunksize)
