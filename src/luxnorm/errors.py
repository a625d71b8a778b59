"""Exception hierarchy shared across the toolkit, and the TSV reader that
raises its parse errors with path and line."""

from __future__ import annotations

from pathlib import Path
from typing import Iterator


class LuxnormError(Exception):
    """Base class for all toolkit errors."""


class ParseError(LuxnormError):
    """A data file could not be parsed; carries path and line number."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        location = ""
        if path is not None:
            location = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(f"{location}{message}")
        self.path = path
        self.line = line


class DictionaryLookupError(LuxnormError, KeyError):
    """Requested lemma is not present in the variant dictionary."""


class ProtocolError(LuxnormError):
    """An external normalizer violated the line protocol."""


class ConfigError(LuxnormError):
    """Invalid or incomplete run configuration."""


def read_tsv(path: str | Path, width: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each line of a UTF-8 TSV file that is
    neither blank nor a `#` comment; every such line must have `width` fields."""
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != width:
                raise ParseError(
                    f"expected {width} tab-separated fields, got {len(fields)}",
                    path=str(path),
                    line=lineno,
                )
            yield lineno, fields


def parse_int(text: str, name: str, path: str | Path, line: int) -> int:
    """`text` as an integer, or a ParseError naming the field."""
    try:
        return int(text)
    except ValueError:
        message = f"{name} is not an integer: {text!r}"
        raise ParseError(message, path=str(path), line=line) from None
