"""Exception hierarchy shared across the toolkit, and the one text reader
every input goes through, with its side-by-side and TSV forms."""

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


def decode_text(data: bytes) -> str:
    """`data` decoded as UTF-8, without a leading byte-order mark."""
    return data.decode("utf-8-sig")


def split_lines(text: str) -> list[str]:
    """The lines of `text`: LF, CR LF or CR end a line; a final break ends the last."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def undecodable_line(exc: UnicodeDecodeError) -> int:
    """The line, as `split_lines` counts, of the first bytes `decode_text` rejected."""
    head = exc.object[: exc.start]
    return 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")


def read_lines(path: str | Path) -> list[str]:
    """The lines of a text file, decoded by `decode_text`, cut by `split_lines`."""
    with open(path, "rb") as handle:
        try:
            return split_lines(decode_text(handle.read()))
        except UnicodeDecodeError as exc:
            line = undecodable_line(exc)
            raise ParseError(f"not valid UTF-8: {exc.reason}", path=str(path), line=line) from None


def read_parallel(*paths: str | Path) -> list[list[str]]:
    """The lines of each file, one sentence per line, as many in every file."""
    texts = [read_lines(path) for path in paths]
    counts = [len(lines) for lines in texts]
    if len(set(counts)) > 1:
        files = ", ".join(map(str, paths))
        raise ParseError(f"line counts differ: {'/'.join(map(str, counts))} ({files})")
    return texts


def read_tsv(path: str | Path, width: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each line of a UTF-8 TSV file that is
    neither blank nor a `#` comment; every such line must have `width` fields."""
    for lineno, line in enumerate(read_lines(path), start=1):
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
