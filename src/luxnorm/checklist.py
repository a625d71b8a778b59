"""Minimum-functionality test harness for normalizers.

The suite covers 21 orthographic rule categories, each tested in two
setups: CORRECT plants one rule-reversed misspelling that the normalizer
must fix, PRESERVE feeds an already-standard sentence that must come back
unchanged. The shipped suite has 10 sentences per category and setup
(420 units).

This module scores outputs and calls no normalizer: `run_suite` takes one
output per unit, in suite order (see `luxnorm.experiment.run_normalizer`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Sequence

from luxnorm.align import GAP, needleman_wunsch
from luxnorm.errors import ParseError, parse_int, read_tsv
from luxnorm.metrics import nfc
from luxnorm.tokenizer import is_token, tokenize

logger = logging.getLogger(__name__)

EXPECTED_CATEGORIES = 21
EXPECTED_UNITS_PER_CELL = 10
EXPECTED_TOTAL_UNITS = EXPECTED_CATEGORIES * 2 * EXPECTED_UNITS_PER_CELL


class Setup(Enum):
    CORRECT = "CORRECT"
    PRESERVE = "PRESERVE"


@dataclass(frozen=True)
class TestUnit:
    """One suite sentence; target fields are set for CORRECT units only."""

    __test__ = False  # domain type, not a pytest class

    unit_id: int
    category: str
    setup: Setup
    sentence: str
    target_index: int | None = None
    expected: str | None = None
    gloss: str = ""
    provenance: str = ""


def default_suite_path() -> Path:
    """Location of the suite data shipped with the package."""
    return Path(resources.files("luxnorm") / "data" / "mft_suite.tsv")


def load_suite(path: str | Path | None = None) -> list[TestUnit]:
    """Load and validate a suite TSV; its units, in file order.

    Columns: category, setup, sentence, target_index, expected, gloss,
    provenance. CORRECT units must have a target token that differs from
    the expected form in NFC (otherwise there is nothing to fix and the
    unit is rejected). Partial suites load but are flagged.
    """
    path = Path(path) if path is not None else default_suite_path()
    units: list[TestUnit] = []
    for lineno, fields in read_tsv(path, 7):
        category, setup_text, sentence, index_text, expected, gloss, provenance = fields
        if not category or not sentence:
            raise ParseError("empty category or sentence", path=str(path), line=lineno)
        try:
            setup = Setup(setup_text)
        except ValueError:
            raise ParseError(
                f"setup must be CORRECT or PRESERVE, got {setup_text!r}",
                path=str(path),
                line=lineno,
            ) from None
        if setup is Setup.CORRECT:
            if not is_token(expected):
                message = f"empty expected form or not one token: {expected!r}"
                raise ParseError(message, path=str(path), line=lineno)
            target_index = parse_int(index_text, "target_index", path, lineno)
            tokens = tokenize(sentence)
            if not 0 <= target_index < len(tokens):
                raise ParseError(
                    f"target_index {target_index} out of range for {len(tokens)} tokens",
                    path=str(path),
                    line=lineno,
                )
            if nfc(tokens[target_index]) == nfc(expected):
                raise ParseError(
                    f"target token already equals expected form {expected!r}; "
                    "the corruption is missing",
                    path=str(path),
                    line=lineno,
                )
            unit = TestUnit(
                lineno, category, setup, sentence, target_index, expected, gloss, provenance
            )
        else:
            if index_text or expected:
                raise ParseError(
                    "PRESERVE unit must not set target_index or expected",
                    path=str(path),
                    line=lineno,
                )
            unit = TestUnit(lineno, category, setup, sentence, gloss=gloss, provenance=provenance)
        units.append(unit)
    if not units:
        raise ParseError("suite file contains no units", path=str(path))
    categories = {unit.category for unit in units}
    if (len(categories), len(units)) != (EXPECTED_CATEGORIES, EXPECTED_TOTAL_UNITS):
        logger.warning(
            "partial suite: %d categories, %d units (expected %d/%d)",
            len(categories),
            len(units),
            EXPECTED_CATEGORIES,
            EXPECTED_TOTAL_UNITS,
        )
    return units


@dataclass
class UnitFailure:
    unit: TestUnit
    produced: str

    def to_dict(self) -> dict:
        return {
            "unit_id": self.unit.unit_id,
            "category": self.unit.category,
            "setup": self.unit.setup.value,
            "sentence": self.unit.sentence,
            "produced": self.produced,
        }


@dataclass
class CellResult:
    """Outcome of one (category, setup) suite cell."""

    total: int = 0
    successes: int = 0
    collateral_changes: int = 0  # non-target edits in CORRECT units
    failures: list[UnitFailure] = field(default_factory=list)

    @property
    def success_rate(self) -> float | None:
        """Percent of units passed; None for a cell with no units."""
        return 100.0 * self.successes / self.total if self.total else None


@dataclass
class SuiteReport:
    categories: list[str]
    cells: dict[tuple[str, Setup], CellResult]

    def cell(self, category: str, setup: Setup) -> CellResult:
        """The cell's result; an empty one, not stored, when it has no units."""
        return self.cells.get((category, setup), CellResult())

    def to_dict(self) -> dict:
        rows = {}
        for category in self.categories:
            correct = self.cell(category, Setup.CORRECT)
            preserve = self.cell(category, Setup.PRESERVE)
            rows[category] = {
                "correct": {
                    "total": correct.total,
                    "successes": correct.successes,
                    "rate": correct.success_rate,
                    "collateral_changes": correct.collateral_changes,
                },
                "preserve": {
                    "total": preserve.total,
                    "successes": preserve.successes,
                    "rate": preserve.success_rate,
                },
            }
        return {
            "categories": rows,
            "failures": [
                f.to_dict() for cell in self.cells.values() for f in cell.failures
            ],
        }


def _judge(unit: TestUnit, produced: str) -> tuple[bool, int]:
    """Judge one unit's output; returns (success, collateral edit count).

    A PRESERVE unit passes iff the output equals the input, up to
    whitespace and NFC; no collateral count applies. For a CORRECT unit
    the produced sentence is word-aligned with the input; the unit passes
    iff the output token aligned to the target position equals the
    expected form. Edits elsewhere are counted but do not fail the unit.
    """
    if unit.setup is Setup.PRESERVE:
        return nfc(" ".join(produced.split())) == nfc(" ".join(unit.sentence.split())), 0
    alignment = needleman_wunsch(tokenize(unit.sentence), tokenize(produced))
    success = False
    collateral = 0
    position = -1
    for in_token, out_token in alignment.columns:
        if in_token is not GAP:
            position += 1
            if position == unit.target_index:
                if isinstance(out_token, str) and nfc(out_token) == nfc(unit.expected):
                    success = True
                continue
        if in_token is GAP or out_token is GAP or nfc(in_token) != nfc(out_token):
            collateral += 1
    return success, collateral


def _tally(units: Sequence[TestUnit], outputs: Sequence[str | None]) -> dict[str, CellResult]:
    """Score each unit's output per category; a None output fails as `<error>`."""
    results: dict[str, CellResult] = {}
    for unit, produced in zip(units, outputs):
        cell = results.setdefault(unit.category, CellResult())
        cell.total += 1
        success, collateral = (False, 0) if produced is None else _judge(unit, produced)
        cell.collateral_changes += collateral
        if success:
            cell.successes += 1
        else:
            cell.failures.append(UnitFailure(unit, "<error>" if produced is None else produced))
    return results


def run_correct_setup(
    units: Sequence[TestUnit], outputs: Sequence[str | None]
) -> dict[str, CellResult]:
    """Score CORRECT units per category: was the planted error fixed?"""
    assert all(u.setup is Setup.CORRECT for u in units)
    return _tally(units, outputs)


def run_preserve_setup(
    units: Sequence[TestUnit], outputs: Sequence[str | None]
) -> dict[str, CellResult]:
    """Score PRESERVE units per category: did correct input survive?"""
    assert all(u.setup is Setup.PRESERVE for u in units)
    return _tally(units, outputs)


def run_suite(units: Sequence[TestUnit], outputs: Sequence[str | None]) -> SuiteReport:
    """Score both setups from the outputs, one per unit in suite order;
    a None output fails its unit as `<error>`. The report's categories are
    the units', in first-seen order."""
    if len(outputs) != len(units):
        raise ValueError(f"{len(outputs)} outputs for {len(units)} suite units")
    categories = list(dict.fromkeys(unit.category for unit in units))
    report = SuiteReport(categories=categories, cells={})
    for setup, score in ((Setup.CORRECT, run_correct_setup), (Setup.PRESERVE, run_preserve_setup)):
        chosen = [i for i, unit in enumerate(units) if unit.setup is setup]
        cells = score([units[i] for i in chosen], [outputs[i] for i in chosen])
        report.cells.update(((category, setup), cell) for category, cell in cells.items())
    return report


def render_report(report: SuiteReport, fmt: str = "table") -> str:
    """Render per-category success rates, whole-number percentages; `-`
    for a cell with no units."""

    def rate(category: str, setup: Setup) -> str:
        value = report.cell(category, setup).success_rate
        return "-" if value is None else str(int(round(value)))

    header = ("category", "correct", "preserve")
    rows = [
        (category, rate(category, Setup.CORRECT), rate(category, Setup.PRESERVE))
        for category in report.categories
    ]
    if fmt == "tsv":
        return "\n".join("\t".join(row) for row in [header, *rows])
    if fmt != "table":
        raise ValueError(f"unknown report format: {fmt!r}")
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(3)]
    lines = []
    for row in [header, *rows]:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines)
