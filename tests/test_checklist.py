from __future__ import annotations

import random

import pytest

from luxnorm.checklist import (
    EXPECTED_TOTAL_UNITS,
    CellResult,
    Setup,
    SuiteReport,
    TestSuite,
    TestUnit,
    default_suite_path,
    load_suite,
    render_report,
    run_correct_setup,
    run_preserve_setup,
    run_suite,
)
from luxnorm.errors import ParseError
from luxnorm.experiment import run_normalizer


def identity(sentences):
    return list(sentences)


def outputs(normalizer, units):
    return normalizer([unit.sentence for unit in units])


def make_gold_oracle(suite):
    gold = {unit.sentence: unit.gold_sentence() for unit in suite.units}
    return lambda sentences: [gold.get(s, s) for s in sentences]


@pytest.fixture(scope="module")
def suite() -> TestSuite:
    return load_suite(default_suite_path())


class TestLoadSuite:
    def test_shipped_suite_is_complete(self, suite):
        assert suite.is_complete
        assert len(suite.units) == EXPECTED_TOTAL_UNITS
        assert len(suite.categories) == 21
        for category in suite.categories:
            assert len(suite.select(Setup.CORRECT, category)) == 10
            assert len(suite.select(Setup.PRESERVE, category)) == 10

    def test_seed_units_load(self, suite):
        quantity = suite.select(Setup.CORRECT, "Quantity Rule")
        broom = [u for u in quantity if u.sentence == "Wou ass d'Bischt fir ze kieren?"]
        assert len(broom) == 1
        assert broom[0].expected == "d'Biischt"
        assert broom[0].provenance == "core"
        vowels = suite.select(Setup.CORRECT, "Short Vowels")
        assert any(u.expected == "geschriwwen" for u in vowels)

    def test_correct_targets_differ_from_expected(self, suite):
        from luxnorm.tokenizer import tokenize

        for unit in suite.select(Setup.CORRECT):
            assert tokenize(unit.sentence)[unit.target_index] != unit.expected

    def test_missing_corruption_rejected(self, tmp_path):
        path = tmp_path / "suite.tsv"
        path.write_text(
            "Quantity Rule\tCORRECT\tWou ass d'Biischt?\t2\td'Biischt\tgloss\tcore\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="corruption is missing"):
            load_suite(path)

    @pytest.mark.parametrize("expected", ["asw.", "gutt a", ""])
    def test_expected_form_must_be_one_token(self, tmp_path, expected):
        # a CORRECT unit whose expected form is not one token could never pass
        path = tmp_path / "suite.tsv"
        path.write_text(
            "Cat\tPRESERVE\tAlles gutt.\t\t\tgloss\tcore\n"
            f"Cat\tCORRECT\tDat ass gut.\t2\t{expected}\tgloss\tcore\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="not one token") as excinfo:
            load_suite(path)
        assert excinfo.value.line == 2

    def test_preserve_with_target_rejected(self, tmp_path):
        path = tmp_path / "suite.tsv"
        path.write_text("Cat\tPRESERVE\tAlles gutt.\t1\tx\tgloss\tcore\n", encoding="utf-8")
        with pytest.raises(ParseError, match="PRESERVE unit"):
            load_suite(path)

    def test_bad_setup_rejected(self, tmp_path):
        path = tmp_path / "suite.tsv"
        path.write_text("Cat\tFIX\tAlles gutt.\t\t\tgloss\tcore\n", encoding="utf-8")
        with pytest.raises(ParseError, match="CORRECT or PRESERVE"):
            load_suite(path)

    def test_target_index_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "suite.tsv"
        path.write_text("Cat\tCORRECT\tAlles gutt.\t9\tx\tgloss\tcore\n", encoding="utf-8")
        with pytest.raises(ParseError, match="out of range"):
            load_suite(path)

    def test_partial_suite_loads_with_flag(self, tmp_path, caplog):
        path = tmp_path / "suite.tsv"
        path.write_text("Cat\tPRESERVE\tAlles gutt.\t\t\tgloss\tcore\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            partial = load_suite(path)
        assert not partial.is_complete
        assert "partial suite" in caplog.text

    def test_categories_come_from_the_units_in_first_seen_order(self, suite):
        # so a scored unit's category always has its row in the report
        units = suite.select(Setup.PRESERVE, "Short Vowels") + suite.select(Setup.CORRECT)
        categories = TestSuite(units).categories
        assert categories[0] == "Short Vowels"
        assert sorted(categories) == sorted(suite.categories)
        unit = suite.select(Setup.CORRECT, "Quantity Rule")[0]
        assert TestSuite([unit]).categories == [unit.category]

    def test_gold_sentence_fixes_target(self, suite):
        unit = suite.select(Setup.CORRECT, "Quantity Rule")[0]
        assert "d'Biischt" in unit.gold_sentence()
        assert "d'Bischt" not in unit.gold_sentence()

    def test_gold_sentence_keeps_unit_spacing(self):
        unit = TestUnit(1, "Cat", Setup.CORRECT, 'Hien huet  "Mellech" , gell', 3, "Mëllech")
        assert unit.gold_sentence() == 'Hien huet  "Mëllech" , gell'


class TestRunSetups:
    def test_identity_scores_zero_on_correct(self, suite):
        units = suite.select(Setup.CORRECT)
        results = run_correct_setup(units, outputs(identity, units))
        for category, cell in results.items():
            assert cell.successes == 0, category
            assert cell.total == 10

    def test_identity_scores_full_on_preserve(self, suite):
        units = suite.select(Setup.PRESERVE)
        results = run_preserve_setup(units, outputs(identity, units))
        for category, cell in results.items():
            assert cell.successes == cell.total == 10, category

    def test_gold_oracle_scores_full_everywhere(self, suite):
        oracle = make_gold_oracle(suite)
        report = run_suite(suite, outputs(oracle, suite.units))
        for category in suite.categories:
            assert report.cell(category, Setup.CORRECT).success_rate == 100.0
            assert report.cell(category, Setup.PRESERVE).success_rate == 100.0

    def test_lowercasing_normalizer_fails_preserve(self, suite):
        lowercase = lambda sentences: [s.lower() for s in sentences]
        units = suite.select(Setup.PRESERVE, "Quantity Rule")
        results = run_preserve_setup(units, outputs(lowercase, units))
        assert results["Quantity Rule"].successes == 0

    def test_unit_order_does_not_change_rates(self, suite):
        units = suite.select(Setup.CORRECT)
        oracle = make_gold_oracle(suite)
        shuffled = list(units)
        random.Random(3).shuffle(shuffled)
        direct = run_correct_setup(units, outputs(oracle, units))
        permuted = run_correct_setup(shuffled, outputs(oracle, shuffled))
        for category in direct:
            assert direct[category].successes == permuted[category].successes

    def test_partial_fix_counts_only_target(self, suite):
        # fixing the target while vandalizing another word still passes
        # CORRECT (collateral is reported separately)
        unit = suite.select(Setup.CORRECT, "Quantity Rule")[0]

        def vandal(sentences):
            out = []
            for sentence in sentences:
                fixed = unit.gold_sentence().replace("Wou", "Zzz")
                out.append(fixed if sentence == unit.sentence else sentence)
            return out

        results = run_correct_setup([unit], outputs(vandal, [unit]))
        cell = results[unit.category]
        assert cell.successes == 1
        assert cell.collateral_changes >= 1

    def test_normalizer_crash_counts_unit_failed(self, suite):
        unit = suite.select(Setup.CORRECT, "Quantity Rule")[0]
        other = suite.select(Setup.CORRECT, "Quantity Rule")[1]

        def flaky(sentences):
            if any(s == unit.sentence for s in sentences):
                raise RuntimeError("boom")
            return [s for s in sentences]

        produced = run_normalizer(flaky, [unit.sentence, other.sentence])
        report = run_suite(TestSuite([unit, other]), produced)
        cell = report.cell(unit.category, Setup.CORRECT)
        assert cell.total == 2
        failures = {f.produced for f in cell.failures}
        assert "<error>" in failures

    def test_missing_output_fails_as_error(self, suite):
        for setup, score in ((Setup.CORRECT, run_correct_setup), (Setup.PRESERVE, run_preserve_setup)):
            unit = suite.select(setup)[0]
            cell = score([unit], [None])[unit.category]
            assert (cell.total, cell.successes) == (1, 0)
            assert [f.produced for f in cell.failures] == ["<error>"]

    def test_failures_carry_reproduction_data(self, suite):
        units = suite.select(Setup.CORRECT, "Diphthongs")
        results = run_correct_setup(units, outputs(identity, units))
        for failure in results["Diphthongs"].failures:
            assert failure.unit.unit_id > 0
            assert failure.unit.sentence
            assert failure.produced == failure.unit.sentence  # identity output


class TestRunSuite:
    def test_scores_a_plain_output_list(self, suite):
        report = run_suite(suite, [unit.sentence for unit in suite.units])
        for category in suite.categories:
            assert report.cell(category, Setup.CORRECT).success_rate == 0.0, category
            assert report.cell(category, Setup.PRESERVE).success_rate == 100.0, category

    def test_output_count_must_match_the_units(self, suite):
        sentences = [unit.sentence for unit in suite.units]
        for wrong in (sentences[:-1], sentences + ["extra"]):
            with pytest.raises(ValueError, match="outputs for 420 suite units"):
                run_suite(suite, wrong)


class TestRunNormalizer:
    def test_one_bad_unit_is_isolated_by_halving(self, suite):
        bad = suite.units[137]
        calls = []

        def flaky(sentences):
            calls.append(len(sentences))
            if bad.sentence in sentences:
                raise RuntimeError("boom")
            return list(sentences)

        report = run_suite(suite, run_normalizer(flaky, [u.sentence for u in suite.units]))
        assert len(calls) <= 19  # retrying each unit alone took 421
        errors = [f.unit.unit_id for cell in report.cells.values()
                  for f in cell.failures if f.produced == "<error>"]
        assert errors == [bad.unit_id]
        expected = run_suite(suite, outputs(identity, suite.units))
        key = (bad.category, bad.setup)
        assert {k: c for k, c in report.cells.items() if k != key} == {
            k: c for k, c in expected.cells.items() if k != key}

    def test_short_output_fails_only_that_sentence(self):
        def drop_x(sentences):
            return [s for s in sentences if s != "x"]

        assert run_normalizer(drop_x, ["a", "x", "b", "c"]) == ["a", None, "b", "c"]

    def test_fatal_prefix_reraises_the_normalizers_error(self):
        error = RuntimeError("boom")
        calls = []

        def fails_on_a(sentences):
            calls.append(list(sentences))
            if "a" in sentences:
                raise error
            return list(sentences)

        with pytest.raises(RuntimeError) as excinfo:
            run_normalizer(fails_on_a, ["z", "a", "b", "c"], fatal=2)
        assert excinfo.value is error
        assert calls == [["z", "a", "b", "c"], ["z", "a"]]
        assert run_normalizer(fails_on_a, ["z", "b", "a"], fatal=2) == ["z", "b", None]

    def test_always_failing_normalizer_costs_2n_minus_1_calls(self):
        calls = []

        def broken(sentences):
            calls.append(len(sentences))
            raise RuntimeError("boom")

        assert run_normalizer(broken, list("abcde")) == [None] * 5
        assert len(calls) == 2 * 5 - 1


class TestRenderReport:
    def test_empty_report_is_header_only(self):
        report = SuiteReport(categories=[], cells={})
        assert render_report(report, "tsv") == "category\tcorrect\tpreserve"

    def test_single_category_row(self):
        report = SuiteReport(categories=["Quantity Rule"], cells={})
        report.cells[("Quantity Rule", Setup.CORRECT)] = CellResult(total=10, successes=7)
        report.cells[("Quantity Rule", Setup.PRESERVE)] = CellResult(total=10, successes=10)
        tsv = render_report(report, "tsv")
        assert tsv.splitlines()[1] == "Quantity Rule\t70\t100"

    def test_full_run_renders_all_categories(self, suite):
        report = run_suite(suite, outputs(identity, suite.units))
        lines = render_report(report, "tsv").splitlines()
        assert len(lines) == 22  # header + 21 categories
        table = render_report(report, "table").splitlines()
        assert len(table) == 22

    def test_partial_suite_leaves_empty_cells_unrated(self, suite):
        # one CORRECT unit: its PRESERVE cell has no units, which is not
        # the same as a normalizer that fails every unit
        unit = suite.select(Setup.CORRECT, "Quantity Rule")[0]
        report = run_suite(TestSuite([unit]), outputs(identity, [unit]))
        assert list(report.cells) == [(unit.category, Setup.CORRECT)]
        rows = report.to_dict()["categories"][unit.category]
        assert rows["correct"]["rate"] == 0.0
        assert rows["preserve"] == {"total": 0, "successes": 0, "rate": None}
        assert render_report(report, "tsv").splitlines()[1] == f"{unit.category}\t0\t-"
        assert render_report(report, "table").splitlines()[1].split()[-2:] == ["0", "-"]
        assert list(report.cells) == [(unit.category, Setup.CORRECT)]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report(SuiteReport(categories=[], cells={}), "yaml")
