from __future__ import annotations

import argparse
import json
import pathlib
import pickle
import shlex
import sys
from dataclasses import fields

import pytest

from conftest import run_python
from luxnorm import cli, experiment
from luxnorm.checklist import Setup, load_suite
from luxnorm.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_PROTOCOL, build_parser, main
from luxnorm.config import ConfigError, RunConfig, build_config, effective_workers
from luxnorm.errors import ParseError, ProtocolError
from luxnorm.experiment import StageError, run_experiment
from luxnorm.tokenizer import split_clitic, tokenize
from oracles import gold_sentence


class TestDictValidate:
    def test_prints_statistics(self, workspace, capsys):
        assert main(["dict", "validate", str(workspace["dict"])]) == EXIT_OK
        out = capsys.readouterr().out
        assert "lemmas\t20" in out
        assert "unwritable_variants\t0" in out

    def test_counts_variants_that_are_not_one_token(self, tmp_path, capsys):
        path = tmp_path / "variants.tsv"
        path.write_text("gutt\tgut.\t99\ngutt\tgut\t1\nvläicht\tvläi cht\t2\n",
                        encoding="utf-8")
        assert main(["dict", "validate", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "variant_entries\t3" in out
        assert "unwritable_variants\t2" in out

    def test_malformed_dictionary_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only-one-field\n", encoding="utf-8")
        assert main(["dict", "validate", str(bad)]) == EXIT_DATA
        assert "error" in capsys.readouterr().err


class TestSynth:
    def test_writes_jsonl_and_stats(self, workspace, tmp_path, capsys):
        out = tmp_path / "pairs.jsonl"
        stats = tmp_path / "stats.json"
        code = main(
            [
                "synth",
                "--dict", str(workspace["dict"]),
                "--corpus", str(workspace["corpus"]),
                "--out", str(out),
                "--seed", "42",
                "--stats", str(stats),
            ]
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 12
        assert all(set(r) == {"source", "target", "changed"} for r in records)
        stats_data = json.loads(stats.read_text(encoding="utf-8"))
        assert stats_data["pair_count"] == 12

    def test_missing_dict_flag_names_it(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth"])
        assert excinfo.value.code == 2
        assert "--dict" in capsys.readouterr().err

    def test_all_blank_corpus_is_data_error(self, workspace, tmp_path, capsys):
        corpus = tmp_path / "blank.txt"
        corpus.write_text("\n \n\t\n", encoding="utf-8")
        out = tmp_path / "pairs.jsonl"
        out.write_bytes(b'{"kept": true}\n')
        argv = ["synth", "--dict", str(workspace["dict"]), "--corpus", str(corpus)]
        assert main([*argv, "--out", str(out)]) == EXIT_DATA
        assert "no non-blank sentences" in capsys.readouterr().err
        assert out.read_bytes() == b'{"kept": true}\n'

    def test_byte_identical_across_worker_counts(self, workspace, tmp_path, pool_starts):
        outputs = []
        for workers in ("1", "8"):
            out = tmp_path / f"pairs-{workers}.jsonl"
            assert (
                main(
                    [
                        "synth",
                        "--dict", str(workspace["dict"]),
                        "--corpus", str(workspace["corpus"]),
                        "--out", str(out),
                        "--seed", "7",
                        "--workers", workers,
                    ]
                )
                == EXIT_OK
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert pool_starts == [7]


class TestNormalizeCommand:
    def test_round_trips_corrupted_corpus(self, workspace, tmp_path):
        out = tmp_path / "normalized.txt"
        code = main(
            [
                "normalize",
                "--dict", str(workspace["dict"]),
                "--lexicon", str(workspace["lexicon"]),
                "--in", str(workspace["orig"]),
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert out.read_text(encoding="utf-8") == workspace["gold"].read_text(encoding="utf-8")

    @pytest.mark.parametrize("resource, line", [("lexicon", "gutt a\t5\n"),
                                                ("dict", "asw.\tasw\t1\n")], ids=["lexicon", "dict"])
    def test_form_that_is_not_one_token_is_data_error(self, workspace, tmp_path, capsys,
                                                        resource, line):
        path = workspace[resource]
        path.write_text(path.read_text(encoding="utf-8") + line, encoding="utf-8")
        code = main(["normalize", "--dict", str(workspace["dict"]),
                     "--lexicon", str(workspace["lexicon"]),
                     "--in", str(workspace["orig"]), "--out", str(tmp_path / "o.txt")])
        assert code == EXIT_DATA
        assert "not one token" in capsys.readouterr().err


class TestAlignCommand:
    def test_dump_contains_gap_markers(self, tmp_path):
        orig = tmp_path / "o.txt"
        pred = tmp_path / "p.txt"
        gold = tmp_path / "g.txt"
        orig.write_text("een zwee dräi\n", encoding="utf-8")
        pred.write_text("een dräi\n", encoding="utf-8")
        gold.write_text("een zwee dräi\n", encoding="utf-8")
        dump = tmp_path / "dump.tsv"
        code = main(
            ["align", "--orig", str(orig), "--pred", str(pred), "--gold", str(gold), "--dump", str(dump)]
        )
        assert code == EXIT_OK
        lines = dump.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "original\tpredicted\tgold"
        assert "zwee\t<GAP>\tzwee" in lines

    def test_copied_alignment_writes_gap_markers(self, tmp_path, monkeypatch):
        # the gap is the same object after the alignment is pickled
        aligned = cli.align_triple
        monkeypatch.setattr(cli, "align_triple", lambda *a: pickle.loads(pickle.dumps(aligned(*a))))
        args = ["align"]
        for side, text in (("orig", "a b\n"), ("pred", "a\n"), ("gold", "a b c\n")):
            path = tmp_path / f"{side}.txt"
            path.write_text(text, encoding="utf-8")
            args += [f"--{side}", str(path)]
        dump = tmp_path / "dump.tsv"
        assert main([*args, "--dump", str(dump)]) == EXIT_OK
        assert dump.read_text(encoding="utf-8").splitlines()[1:] == [
            "a\ta\ta", "b\t<GAP>\tb", "<GAP>\t<GAP>\tc"
        ]

    def test_line_count_mismatch_is_data_error(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("x\n", encoding="utf-8")
        b.write_text("x\ny\n", encoding="utf-8")
        dump = tmp_path / "dump.tsv"
        assert (
            main(["align", "--orig", str(a), "--pred", str(b), "--gold", str(a), "--dump", str(dump)])
            == EXIT_DATA
        )


# `eval` on the workspace with default flags: the leave-as-is baseline
PINNED_EVAL_REPORT = """\
{
  "double_count_miscorrections": false,
  "metrics": {
    "accuracy": 0.8333333333333334,
    "cer": 0.02643171806167401,
    "err": 0.0,
    "f1": null,
    "fn": 12,
    "fp": 0,
    "precision": null,
    "recall": 0.0,
    "tn": 60,
    "tp": 0
  },
  "scoring_scheme": {
    "gap_penalty": -0.5,
    "match_bonus": 1.0,
    "mismatch_penalty": -1.0
  }
}
"""


class TestEvalCommand:
    def test_json_report(self, workspace, tmp_path):
        report = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--orig", str(workspace["orig"]),
                "--pred", str(workspace["gold"]),
                "--gold", str(workspace["gold"]),
                "--report", str(report),
            ]
        )
        assert code == EXIT_OK
        data = json.loads(report.read_text(encoding="utf-8"))
        assert data["metrics"]["err"] == 1.0
        assert data["metrics"]["cer"] == 0.0

    def test_default_report_bytes(self, workspace, tmp_path):
        report = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--orig", str(workspace["orig"]),
                "--pred", str(workspace["orig"]),
                "--gold", str(workspace["gold"]),
                "--report", str(report),
            ]
        )
        assert code == EXIT_OK
        assert report.read_text(encoding="utf-8") == PINNED_EVAL_REPORT

    def test_tsv_report_with_verbose(self, workspace, tmp_path):
        report = tmp_path / "report.tsv"
        code = main(
            [
                "eval",
                "--orig", str(workspace["orig"]),
                "--pred", str(workspace["orig"]),
                "--gold", str(workspace["gold"]),
                "--report", str(report),
                "--format", "tsv",
                "--verbose",
            ]
        )
        assert code == EXIT_OK
        text = report.read_text(encoding="utf-8")
        assert "err\t0" in text
        assert "sentence\ttp\tfp\tfn\ttn" in text

    def test_line_count_mismatch_is_data_error(self, workspace, tmp_path, capsys, monkeypatch):
        # found when the files are read, before any sentence is scored
        monkeypatch.setattr(cli, "evaluate_sentences", lambda *_, **__: pytest.fail("scored"))
        short = tmp_path / "short.txt"
        short.write_text("x\n", encoding="utf-8")
        argv = ["eval", "--orig", str(workspace["orig"]), "--pred", str(short),
                "--gold", str(workspace["gold"])]
        assert main(argv) == EXIT_DATA
        assert "line counts differ: 12/1/12" in capsys.readouterr().err


def counting_identity(launches) -> str:
    """A `cmd:` identity normalizer that appends a line to `launches` per launch."""
    script = (
        f"import sys; open({str(launches)!r}, 'a').write('launch\\n'); "
        "sys.stdout.write(sys.stdin.read())"
    )
    return f"cmd:{sys.executable} -c {shlex.quote(script)}"


class TestChecklistCommand:
    def test_identity_normalizer_summary(self, tmp_path, capsys):
        report = tmp_path / "suite.tsv"
        code = main(
            ["checklist", "--normalizer", "identity", "--report", str(report), "--format", "tsv"]
        )
        assert code == EXIT_OK
        lines = report.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "category\tcorrect\tpreserve"
        assert len(lines) == 22
        for line in lines[1:]:
            _, correct, preserve = line.split("\t")
            assert correct == "0"
            assert preserve == "100"

    def test_pipeline_requires_resources(self, capsys):
        assert main(["checklist", "--normalizer", "pipeline"]) == EXIT_CONFIG
        assert "--dict" in capsys.readouterr().err

    def test_external_command_normalizer(self, tmp_path):
        # the whole suite goes to the command in one batch: one launch
        launches = tmp_path / "launches.txt"
        identity_cmd = counting_identity(launches)
        report = tmp_path / "suite.tsv"
        code = main(["checklist", "--normalizer", identity_cmd, "--report", str(report), "--format", "tsv"])
        assert code == EXIT_OK
        assert launches.read_text(encoding="utf-8") == "launch\n"

    def test_unknown_normalizer_is_config_error(self):
        assert main(["checklist", "--normalizer", "telepathy"]) == EXIT_CONFIG

    def test_broken_external_command_still_reports(self, tmp_path):
        # protocol failures per batch degrade to per-unit failures, not a crash
        report = tmp_path / "suite.tsv"
        code = main(
            ["checklist", "--normalizer", "cmd:/nonexistent/tool", "--report", str(report), "--format", "tsv"]
        )
        assert code == EXIT_OK
        for line in report.read_text(encoding="utf-8").splitlines()[1:]:
            _, correct, preserve = line.split("\t")
            assert correct == "0"
            assert preserve == "0"


class TestRunCommand:
    def run_once(self, workspace, out_dir, extra=()):
        return main(
            [
                "run",
                "--dict", str(workspace["dict"]),
                "--lexicon", str(workspace["lexicon"]),
                "--eval-orig", str(workspace["orig"]),
                "--eval-gold", str(workspace["gold"]),
                "--out-dir", str(out_dir),
                *extra,
            ]
        )

    def test_full_run_writes_report(self, workspace, tmp_path):
        out_dir = tmp_path / "out"
        assert self.run_once(workspace, out_dir) == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["metrics"]["err"] == 1.0
        assert set(report["input_checksums"]) >= {"dictionary", "lexicon", "eval_original"}
        assert (out_dir / "predictions.txt").exists()
        assert (out_dir / "suite_report.txt").exists()

    def test_reports_identical_modulo_timestamp(self, workspace, tmp_path, pool_starts):
        reports = []
        for name, workers in (("a", ()), ("b", ("--workers", "8"))):
            out_dir = tmp_path / name
            assert self.run_once(workspace, out_dir, extra=workers) == EXIT_OK
            data = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
            data.pop("timestamp")
            data["config"].pop("output_dir")
            data["config"].pop("workers")
            reports.append(data)
        assert reports[0] == reports[1]
        assert pool_starts == [7]

    def test_external_command_is_launched_once(self, workspace, tmp_path):
        # the eval corpus and the suite go to the command in one batch
        launches = tmp_path / "launches.txt"
        reports = []
        for name, normalizer in (("cmd", counting_identity(launches)), ("identity", "identity")):
            out_dir = tmp_path / name
            assert self.run_once(workspace, out_dir, extra=("--normalizer", normalizer)) == EXIT_OK
            data = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
            del data["timestamp"], data["config"]
            reports.append(data)
        assert launches.read_text(encoding="utf-8") == "launch\n"
        assert reports[0] == reports[1]

    def test_checklist_rates_a_normalizer_as_the_run_does(self, workspace, tmp_path):
        # a lexicon of the suite's gold words gives rates other than 0 and 100
        tokens = {token for unit in load_suite() for token in tokenize(gold_sentence(unit))}
        words = {split_clitic(token)[1] for token in tokens}
        lexicon = "".join(f"{word}\t1\n" for word in sorted(words))
        workspace["lexicon"].write_text(lexicon, encoding="utf-8")
        table = tmp_path / "checklist.txt"
        resources = ["--dict", str(workspace["dict"]), "--lexicon", str(workspace["lexicon"])]
        assert main(["checklist", *resources, "--report", str(table)]) == EXIT_OK
        out_dir = tmp_path / "out"
        assert self.run_once(workspace, out_dir) == EXIT_OK
        rates = table.read_text(encoding="utf-8")
        assert rates == (out_dir / "suite_report.txt").read_text(encoding="utf-8")
        assert len({line.split()[-2] for line in rates.splitlines()[1:]}) > 2

    @pytest.mark.parametrize("pred", [False, True], ids=["normalized", "pred"])
    def test_one_call_to_the_failure_policy(self, workspace, tmp_path, monkeypatch, pred):
        # with or without `--pred`, the suite is normalized once, in stage
        # `normalize`, and the checklist only scores
        batches, policy = [], experiment.run_normalizer

        def counted(normalizer, sentences, fatal=0):
            batches.append((len(sentences), fatal))
            return policy(normalizer, sentences, fatal)

        monkeypatch.setattr(experiment, "run_normalizer", counted)
        report = run_experiment(RunConfig(
            normalizer="identity",
            eval_original=workspace["orig"],
            eval_gold=workspace["gold"],
            predictions=workspace["gold"] if pred else None,
            output_dir=tmp_path / "out",
        ))
        units = len(load_suite())
        assert batches == ([(units, 0)] if pred else [(12 + units, 12)])
        assert sum(cell.total for cell in report.suite.cells.values()) == units

    def test_failed_batch_is_split(self, workspace, tmp_path, monkeypatch):
        # a normalizer that fails on the one batch and on one suite sentence:
        # the eval corpus goes alone, and only that unit fails, as `<error>`
        eval_lines = workspace["orig"].read_text(encoding="utf-8").splitlines()
        bad = next(u for u in load_suite() if u.setup is Setup.PRESERVE)

        def flaky(sentences):
            if len(sentences) > len(eval_lines) or bad.sentence in sentences:
                raise RuntimeError("cannot normalize this batch")
            return list(sentences)

        def run(name):
            return run_experiment(RunConfig(
                normalizer="identity",
                eval_original=workspace["orig"],
                eval_gold=workspace["gold"],
                output_dir=tmp_path / name,
            ))

        identity = run("identity")
        monkeypatch.setattr(experiment, "build_normalizer", lambda config: flaky)
        report = run("flaky")
        predictions = (tmp_path / "flaky" / "predictions.txt").read_text(encoding="utf-8")
        assert predictions.splitlines() == eval_lines
        assert report.metrics == identity.metrics
        key = (bad.category, bad.setup)
        assert {k: c for k, c in report.suite.cells.items() if k != key} == {
            k: c for k, c in identity.suite.cells.items() if k != key}
        cell, expected = report.suite.cells[key], identity.suite.cells[key]
        assert (cell.total, cell.successes) == (expected.total, expected.successes - 1)
        assert [(f.unit.unit_id, f.produced) for f in cell.failures] == [(bad.unit_id, "<error>")]

    def run_with(self, workspace, tmp_path, monkeypatch, normalizer):
        monkeypatch.setattr(experiment, "build_normalizer", lambda config: normalizer)
        return run_experiment(RunConfig(
            normalizer="identity",
            eval_original=workspace["orig"],
            eval_gold=workspace["gold"],
            output_dir=tmp_path / "out",
        ))

    def test_one_bad_suite_unit_costs_few_calls(self, workspace, tmp_path, monkeypatch):
        bad = load_suite()[300]
        calls = []

        def flaky(sentences):
            calls.append(len(sentences))
            if bad.sentence in sentences:
                raise RuntimeError("cannot normalize this sentence")
            return list(sentences)

        report = self.run_with(workspace, tmp_path, monkeypatch, flaky)
        assert len(calls) <= 21  # two fixed calls, then each suite unit alone, took 423
        errors = [f.unit.unit_id for cell in report.suite.cells.values()
                  for f in cell.failures if f.produced == "<error>"]
        assert errors == [bad.unit_id]

    def test_failing_normalizer_stops_after_two_calls(self, workspace, tmp_path, monkeypatch):
        error = RuntimeError("model failed to load")
        calls = []

        def broken(sentences):
            calls.append(len(sentences))
            raise error

        with pytest.raises(StageError) as excinfo:
            self.run_with(workspace, tmp_path, monkeypatch, broken)
        assert excinfo.value.stage == "normalize"
        assert excinfo.value.cause is error
        assert len(calls) == 2

    def test_short_eval_output_is_protocol_error(self, workspace, tmp_path, monkeypatch):
        # one line short: stage `normalize` fails, no short predictions.txt
        def short(sentences):
            return list(sentences)[:-1]

        with pytest.raises(StageError) as excinfo:
            self.run_with(workspace, tmp_path, monkeypatch, short)
        assert excinfo.value.stage == "normalize"
        assert isinstance(excinfo.value.cause, ProtocolError)
        assert not (tmp_path / "out" / "predictions.txt").exists()
        argv = ["run", "--normalizer", "identity", "--eval-orig", str(workspace["orig"]),
                "--eval-gold", str(workspace["gold"]), "--out-dir", str(tmp_path / "cli")]
        assert main(argv) == EXIT_PROTOCOL

    def test_mismatched_eval_files_fail_before_normalizing(self, workspace, tmp_path, monkeypatch):
        gold = workspace["gold"].read_text(encoding="utf-8").splitlines()
        workspace["gold"].write_text(gold[0] + "\n", encoding="utf-8")
        calls = []

        def recording(sentences):
            calls.append(len(sentences))
            return list(sentences)

        with pytest.raises(StageError) as excinfo:
            self.run_with(workspace, tmp_path, monkeypatch, recording)
        assert excinfo.value.stage == "read-eval-corpus"
        assert isinstance(excinfo.value.cause, ParseError)
        assert calls == []
        assert not (tmp_path / "out" / "predictions.txt").exists()
        argv = ["run", "--normalizer", "identity", "--eval-orig", str(workspace["orig"]),
                "--eval-gold", str(workspace["gold"]), "--out-dir", str(tmp_path / "cli")]
        assert main(argv) == EXIT_DATA

    def test_output_that_is_not_utf8_is_protocol_error(self, workspace, tmp_path, capsys):
        script = "import sys; sys.stdin.read(); sys.stdout.buffer.write(b'\\xff\\n')"
        normalizer = f"cmd:{sys.executable} -c {shlex.quote(script)}"
        out_dir = tmp_path / "out"
        assert self.run_once(workspace, out_dir, extra=("--normalizer", normalizer)) == EXIT_PROTOCOL
        assert "not UTF-8" in capsys.readouterr().err
        assert not (out_dir / "predictions.txt").exists()

    def test_flag_overrides_config_file(self, workspace, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"seed": 7, "normalizer": "identity"}), encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main(
            [
                "run",
                "--config", str(config_file),
                "--eval-orig", str(workspace["orig"]),
                "--eval-gold", str(workspace["gold"]),
                "--out-dir", str(out_dir),
                "--seed", "9",
            ]
        )
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["config"]["seed"] == 9
        assert report["config"]["normalizer"] == "identity"
        assert report["metrics"]["err"] == 0.0  # identity = leave-as-is baseline

    def test_pipeline_flags_reach_the_report_config(self, workspace, tmp_path):
        out_dir = tmp_path / "out"
        assert self.run_once(workspace, out_dir, extra=("--topk", "3")) == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["config"]["topk"] == 3

    def test_missing_eval_paths_is_config_error(self, workspace, capsys):
        assert main(["run", "--dict", str(workspace["dict"])]) == EXIT_CONFIG

    def test_pipeline_without_dict_writes_nothing(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "out"
        argv = ["run", "--lexicon", str(workspace["lexicon"]), "--out-dir", str(out_dir)]
        argv += ["--eval-orig", str(workspace["orig"]), "--eval-gold", str(workspace["gold"])]
        assert main(argv) == EXIT_CONFIG
        assert "--dict" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_predictions_bypass(self, workspace, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            [
                "run",
                "--normalizer", "identity",
                "--eval-orig", str(workspace["orig"]),
                "--eval-gold", str(workspace["gold"]),
                "--pred", str(workspace["gold"]),
                "--out-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["metrics"]["err"] == 1.0

    def test_short_predictions_fail_before_normalizing(self, workspace, tmp_path, monkeypatch):
        # `--pred` is one of the side-by-side files: a wrong line count is a
        # data error in stage `read-eval-corpus`, and nothing is normalized
        short = tmp_path / "short.txt"
        short.write_text("".join(f"{i}\n" for i in range(5)), encoding="utf-8")
        calls = []

        def recording(sentences):
            calls.append(len(sentences))
            return list(sentences)

        monkeypatch.setattr(experiment, "build_normalizer", lambda config: recording)
        with pytest.raises(StageError) as excinfo:
            run_experiment(RunConfig(
                normalizer="identity",
                eval_original=workspace["orig"],
                eval_gold=workspace["gold"],
                predictions=short,
                output_dir=tmp_path / "out",
            ))
        assert excinfo.value.stage == "read-eval-corpus"
        assert isinstance(excinfo.value.cause, ParseError)
        assert "12/12/5" in str(excinfo.value)
        assert calls == []
        assert not (tmp_path / "out" / "predictions.txt").exists()
        out_dir = tmp_path / "cli"
        assert self.run_once(workspace, out_dir, extra=("--pred", str(short))) == EXIT_DATA
        assert not (out_dir / "predictions.txt").exists()

    def test_predictions_are_read_by_the_reader_rules(self, workspace, tmp_path):
        gold = workspace["gold"].read_text(encoding="utf-8")
        pred = tmp_path / "pred.txt"
        pred.write_bytes(("\ufeff" + gold.replace("\n", "\r\n")).encode("utf-8"))
        out_dir = tmp_path / "out"
        extra = ("--normalizer", "identity", "--pred", str(pred))
        assert self.run_once(workspace, out_dir, extra=extra) == EXIT_OK
        assert (out_dir / "predictions.txt").read_text(encoding="utf-8") == gold
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["metrics"]["err"] == 1.0

    def test_invalid_pipeline_setting_is_config_error(self, workspace, tmp_path):
        # rejected before any stage runs, even when --pred bypasses normalization
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"max_edit_distance": 3}), encoding="utf-8")
        out_dir = tmp_path / "out"
        extra = ("--config", str(config_file), "--pred", str(workspace["gold"]))
        assert self.run_once(workspace, out_dir, extra=extra) == EXIT_CONFIG
        assert not (out_dir / "report.json").exists()

    @pytest.mark.parametrize(
        "values",
        [{"workers": "2"}, {"seed": "1"}, {"match_bonus": "1"}, {"weights": "1111"}, {"seed": True}],
        ids=lambda values: json.dumps(values),
    )
    def test_config_file_value_of_wrong_type_names_key(self, workspace, tmp_path, capsys, values):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(values), encoding="utf-8")
        out_dir = tmp_path / "out"
        assert self.run_once(workspace, out_dir, extra=("--config", str(config_file))) == EXIT_CONFIG
        assert repr(next(iter(values))) in capsys.readouterr().err
        assert not (out_dir / "report.json").exists()


def test_every_output_file_is_written_with_lf(workspace, tmp_path, monkeypatch):
    # without `newline`, `write_text` ends lines as the platform does
    written, write_text = {}, pathlib.Path.write_text

    def recording(path, data, encoding=None, errors=None, newline=None):
        written[path.name] = newline
        return write_text(path, data, encoding=encoding, errors=errors, newline=newline)

    monkeypatch.setattr(pathlib.Path, "write_text", recording)
    out = tmp_path / "out"
    out.mkdir()
    dictionary, lexicon = f"--dict={workspace['dict']}", f"--lexicon={workspace['lexicon']}"
    triple = [f"--orig={workspace['orig']}", f"--pred={workspace['gold']}",
              f"--gold={workspace['gold']}"]
    runs = [
        ["synth", dictionary, f"--corpus={workspace['corpus']}", f"--out={out / 'pairs.jsonl'}",
         f"--stats={out / 'stats.json'}"],
        ["normalize", dictionary, lexicon, f"--in={workspace['orig']}", f"--out={out / 'o.txt'}"],
        ["align", *triple, f"--dump={out / 'dump.tsv'}"],
        ["eval", *triple, f"--report={out / 'eval.json'}"],
        ["checklist", "--normalizer", "identity", f"--report={out / 'suite.txt'}"],
        ["run", "--normalizer", "identity", f"--eval-orig={workspace['orig']}",
         f"--eval-gold={workspace['gold']}", f"--out-dir={out / 'run'}"],
    ]
    for argv in runs:
        assert main(argv) == EXIT_OK, argv
    assert written == dict.fromkeys(
        ["stats.json", "o.txt", "dump.tsv", "eval.json", "suite.txt", "predictions.txt",
         "report.json", "suite_report.txt"],
        "\n",
    )


class TestConfig:
    def test_unknown_file_key_rejected(self, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"sede": 1}), encoding="utf-8")
        with pytest.raises(ConfigError, match="sede"):
            build_config({}, config_file=config_file)

    @pytest.mark.parametrize(
        "argv",
        [
            ["dict", "validate", "{missing}"],
            ["synth", "--dict", "{dict}", "--corpus", "{missing}", "--out", "{dir}/p.jsonl"],
            ["normalize", "--dict", "{dict}", "--lexicon", "{lexicon}", "--in", "{missing}",
             "--out", "{dir}/o.txt"],
            ["align", "--orig", "{missing}", "--pred", "{orig}", "--gold", "{gold}",
             "--dump", "{dir}/d.tsv"],
            ["eval", "--orig", "{missing}", "--pred", "{orig}", "--gold", "{gold}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_input_file_is_config_error(self, workspace, capsys, argv):
        # the same exit code as a missing path in `run`'s settings
        missing = workspace["dir"] / "absent.txt"
        assert main([arg.format(**workspace, missing=missing) for arg in argv]) == EXIT_CONFIG
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["synth", "--dict", "{bad}", "--corpus", "{corpus}", "--out", "{out}/p.jsonl"],
             "--out"),
            (["synth", "--dict", "{bad}", "--corpus", "{corpus}", "--out", "{dir}/p.jsonl",
              "--stats", "{out}/s.json"], "--stats"),
            (["normalize", "--dict", "{bad}", "--lexicon", "{lexicon}", "--in", "{orig}",
              "--out", "{out}/o.txt"], "--out"),
            (["align", "--orig", "{bad}", "--pred", "{orig}", "--gold", "{gold}",
              "--dump", "{out}/d.tsv"], "--dump"),
            (["eval", "--orig", "{bad}", "--pred", "{orig}", "--gold", "{gold}",
              "--report", "{out}/r.json"], "--report"),
            (["checklist", "--normalizer", "identity", "--suite", "{bad}",
              "--report", "{out}/r.tsv"], "--report"),
        ],
        ids=lambda value: value[0] if isinstance(value, list) else value,
    )
    def test_missing_output_directory_is_checked_first(self, workspace, capsys, argv, flag):
        # `bad` fails to parse (exit 3) once read; a missing output
        # directory is reported (exit 2) before any input is read
        bad = workspace["dir"] / "bad.txt"
        bad.write_bytes(b"\xff\n")
        absent = workspace["dir"] / "absent"
        args = [arg.format(**workspace, bad=bad, out=absent) for arg in argv]
        assert main(args) == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not (workspace["dir"] / "p.jsonl").exists()
        absent.mkdir()
        assert main(args) == EXIT_DATA

    def test_missing_path_named(self, tmp_path):
        with pytest.raises(ConfigError, match="dictionary"):
            build_config({"dictionary": tmp_path / "absent.tsv"})

    def test_default_seed_recorded(self):
        config = build_config({})
        assert config.seed == 42
        assert config.to_dict()["seed"] == 42

    def test_flag_beats_file(self, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"seed": 5}), encoding="utf-8")
        assert build_config({"seed": 11}, config_file=config_file).seed == 11
        assert build_config({"seed": None}, config_file=config_file).seed == 5

    def test_bad_weights_rejected(self):
        with pytest.raises(ConfigError, match="weights"):
            build_config({"weights": [0.5, 0.5]})

    def test_degenerate_scheme_names_key(self):
        for key, value in (("gap_penalty", 0.9), ("mismatch_penalty", 2.0), ("match_bonus", 0.0)):
            with pytest.raises(ConfigError, match=key):
                build_config({key: value})

    def test_bad_pipeline_setting_names_key(self):
        for key, value in (
            ("max_edit_distance", 3),
            ("max_edit_distance", 0),
            ("ngram_n", 0),
            ("ngram_n", "3"),
            ("topk", -1),
            ("weights", [0.4, -0.2, 0.4, 0.4]),
            ("weights", "abcd"),
        ):
            with pytest.raises(ConfigError, match=key):
                build_config({key: value})

    def test_pipeline_subcommand_flags_are_validated(self, workspace, tmp_path, capsys):
        # every subcommand builds its configuration like run does
        inputs = ["--dict", str(workspace["dict"]), "--lexicon", str(workspace["lexicon"])]
        normalize = ["normalize", "--in", str(workspace["orig"]), "--out", str(tmp_path / "o.txt")]
        missing = ["--dict", str(tmp_path / "absent.tsv"), "--lexicon", str(workspace["lexicon"])]
        triple = ["--orig", str(workspace["orig"]), "--pred", str(workspace["orig"]),
                  "--gold", str(workspace["gold"])]
        synth = ["synth", "--corpus", str(workspace["corpus"]), "--out", str(tmp_path / "p.jsonl")]
        # json.loads reads NaN and -Infinity
        nan_config, inf_config = tmp_path / "nan.json", tmp_path / "inf.json"
        nan_config.write_text('{"weights": [NaN, 1, 1, 1]}', encoding="utf-8")
        inf_config.write_text('{"weights": [1, 1, -Infinity, 1]}', encoding="utf-8")
        for argv, key in (
            (normalize + inputs + ["--topk", "-1"], "topk"),
            (normalize + inputs + ["--ngram-n", "0"], "ngram_n"),
            (normalize + inputs + ["--workers", "0"], "workers"),
            (normalize + inputs + ["--weights=-1,0,0,0"], "weights"),
            (normalize + inputs + ["--weights", "nan,1,1,1"], "weights"),
            (normalize + inputs + ["--weights", "1,inf,1,1"], "weights"),
            (["run", *inputs, "--config", str(nan_config)], "weights"),
            (["run", *inputs, "--config", str(inf_config)], "weights"),
            (normalize + inputs + ["--max-edit-distance", "3"], "max_edit_distance"),
            (normalize + missing, "dictionary"),
            (["checklist", *inputs, "--workers", "0"], "workers"),
            (["checklist", *inputs, "--topk", "-1"], "topk"),
            (["run", *inputs, "--ngram-n", "0"], "ngram_n"),
            (["checklist", *missing], "dictionary"),
            (["checklist", "--normalizer", "identity", "--suite", str(tmp_path / "no.tsv")],
             "suite"),
            (["eval", *triple, "--gap-penalty", "1"], "gap_penalty"),
            (["align", *triple, "--dump", str(tmp_path / "d.tsv"), "--mismatch-penalty", "2"],
             "mismatch_penalty"),
            (synth + ["--dict", str(workspace["dict"]), "--workers", "0"], "workers"),
            (synth + ["--dict", str(workspace["dict"]), "--seed", "-1"], "seed"),
            (synth + ["--dict", str(tmp_path / "absent.tsv")], "dictionary"),
        ):
            assert main(argv) == EXIT_CONFIG, argv
            assert key in capsys.readouterr().err, argv
        assert not (tmp_path / "p.jsonl").exists()

    def test_non_finite_scheme_is_a_config_error(self, workspace):
        # in a child process: before the check, eval never returned
        triple = ["--orig", str(workspace["orig"]), "--pred", str(workspace["orig"]),
                  "--gold", str(workspace["gold"])]
        for flags, key in (
            (["--gap-penalty=-inf"], "gap_penalty"),
            (["--match-bonus=1e308", "--mismatch-penalty=-1e308", "--gap-penalty=-1e308"],
             "gap_penalty"),
        ):
            result = run_python(["-m", "luxnorm.cli", "eval", *triple, *flags], timeout=60)
            assert result.returncode == EXIT_CONFIG, (flags, result.stderr)
            assert key in result.stderr, flags

    def test_run_config_flags_have_no_parser_default(self):
        # an unset flag must fall through to the config file and RunConfig
        names = {spec.name for spec in fields(RunConfig)}
        pending = [build_parser()]
        while pending:
            parser = pending.pop()
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    pending.extend(action.choices.values())
                elif action.dest in names:
                    assert action.default is None, (parser.prog, action.dest)

    def test_negative_weights_need_the_equals_form(self, workspace, tmp_path):
        # argparse reads a separate "-1,0,0,0" as an option, so it exits 2 itself
        argv = ["normalize", "--dict", str(workspace["dict"]), "--lexicon",
                str(workspace["lexicon"]), "--in", str(workspace["orig"]),
                "--out", str(tmp_path / "o.txt"), "--weights", "-1,0,0,0"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_CONFIG

    def test_thread_cap(self, monkeypatch):
        monkeypatch.setenv("LUXNORM_THREADS", "2")
        assert effective_workers(8) == 2
        assert effective_workers(1) == 1
        monkeypatch.delenv("LUXNORM_THREADS")
        assert effective_workers(8) == 8

    def test_stage_error_names_stage(self, tmp_path, workspace):
        config = RunConfig(
            normalizer="cmd:/nonexistent/tool",
            eval_original=workspace["orig"],
            eval_gold=workspace["gold"],
            output_dir=tmp_path / "out",
        )
        with pytest.raises(StageError, match="normalize"):
            run_experiment(config)
