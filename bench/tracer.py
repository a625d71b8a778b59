"""Spans around calls into luxnorm, recorded from outside the library.

The tracer replaces public functions and methods of the luxnorm modules
with wrappers that record a span per call: name, start, end, parent span
and run id, plus an optional note computed from the arguments and the
result. Spans are kept in flat parallel lists (cheap for the garbage
collector) until the caller writes them out. Everything is restored when
the `installed` block ends.

Work done inside worker processes is not recorded: those processes hold
their own copy of the tracer.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    run: str
    note: object

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.run = ""
        self.enabled = True
        self._names: list[str] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._parents: list[int] = []
        self._runs: list[str] = []
        self._notes: list[object] = []
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self._names)

    def _open(self, name: str) -> int:
        index = len(self._names)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._names.append(name)
        self._runs.append(self.run)
        self._ends.append(0.0)
        self._notes.append(None)
        self._stack.append(index)
        self._starts.append(time.perf_counter())
        return index

    def _close(self, index: int, note: object = None) -> None:
        self._ends[index] = time.perf_counter()
        self._notes[index] = note
        self._stack.pop()

    def spans(self) -> list[Span]:
        return [Span(*fields) for fields in zip(self._names, self._starts, self._ends,
                                                 self._parents, self._runs, self._notes)]

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextlib.contextmanager
    def paused(self):
        """Calls inside the block go straight to the wrapped functions."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def wrap(self, fn: Callable, name: str, note: Callable | None) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                if not tracer.enabled:
                    return (yield from fn(*args, **kwargs))
                index = tracer._open(name)
                try:
                    return (yield from fn(*args, **kwargs))
                finally:
                    tracer._close(index)
            return traced_gen

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(index, note(args, result) if note is not None else None)
        return traced

    @contextlib.contextmanager
    def installed(self, targets: list[tuple[str, str, Callable | None]]):
        """Wrap each (module, qualname, note) target for the block's duration.

        A module-level function is replaced in its own module and in every
        luxnorm module that imported it by name; a method is replaced on
        its class. Span names are `<module>.<qualname>`.
        """
        undo: list[tuple[object, str, object]] = []
        try:
            for module_name, qualname, note in targets:
                module = importlib.import_module(module_name)
                span_name = f"{module_name.rsplit('.', 1)[-1]}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    undo.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(original, span_name, note))
                    continue
                original = getattr(module, qualname)
                wrapper = self.wrap(original, span_name, note)
                for loaded_name, loaded in list(sys.modules.items()):
                    if not loaded_name.startswith("luxnorm") or loaded is None:
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            undo.append((loaded, attr, original))
                            setattr(loaded, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """One JSON object per span, start and end relative to the first span."""
        origin = self._starts[0] if self._starts else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self)):
                handle.write(json.dumps({
                    "name": self._names[i],
                    "start": round(self._starts[i] - origin, 7),
                    "end": round(self._ends[i] - origin, 7),
                    "parent": self._parents[i],
                    "run": self._runs[i],
                }) + "\n")
