"""Full experiment orchestration: normalize, evaluate, run the test suite.

Reports embed the exact configuration and sha256 checksums of every input
file, so a run can be audited and reproduced; re-running with the same
config yields an identical report except for the timestamp.
"""

from __future__ import annotations

import datetime
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from luxnorm import __version__
from luxnorm.checklist import SuiteReport, load_suite, render_report, run_normalizer, run_suite
from luxnorm.config import INPUT_FILE_KEYS, RunConfig, effective_workers
from luxnorm.dictionary import build_reverse_index, load_dictionary
from luxnorm.errors import ConfigError, LuxnormError, ParseError, ProtocolError
from luxnorm.metrics import MetricsReport, evaluate_sentences
from luxnorm.normalize import Pipeline, load_lexicon, run_external_normalizer


class StageError(LuxnormError):
    """A pipeline stage failed; earlier artifacts are left on disk."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class ExperimentReport:
    config: dict
    checksums: dict[str, str]
    metrics: MetricsReport
    suite: SuiteReport
    version: str
    timestamp: str

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "timestamp": self.timestamp,
            "config": self.config,
            "input_checksums": self.checksums,
            "metrics": self.metrics.to_dict(),
            "suite": self.suite.to_dict(),
        }


def file_checksum(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_lines(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def read_predictions(path: Path, expected: int) -> list[str]:
    """Load precomputed predictions, one sentence per line."""
    lines = read_lines(path)
    if len(lines) != expected:
        raise ProtocolError(
            f"predictions file {path} has {len(lines)} lines, expected {expected}"
        )
    return lines


def build_normalizer(config: RunConfig):
    """Resolve the configured normalizer into a batch callable."""
    workers = effective_workers(config.workers)
    if config.normalizer == "identity":
        return lambda sentences: list(sentences)
    if config.normalizer.startswith("cmd:"):
        command = config.normalizer[len("cmd:"):]
        return lambda sentences: run_external_normalizer(command, sentences)
    if config.normalizer != "pipeline":
        raise ConfigError(f"unknown normalizer {config.normalizer!r}")
    for key, flag in (("dictionary", "--dict"), ("lexicon", "--lexicon")):
        if getattr(config, key) is None:
            raise ConfigError(f"the pipeline normalizer requires {flag}")
    dictionary = load_dictionary(config.dictionary)
    lexicon = load_lexicon(config.lexicon)
    pipeline = Pipeline(build_reverse_index(dictionary), lexicon, config.pipeline_config())
    return lambda sentences: pipeline.normalize_lines(sentences, workers=workers)


def run_experiment(config: RunConfig) -> ExperimentReport:
    """Execute normalize -> align/metrics -> checklist and write reports.

    The eval corpus and the suite are normalized as one batch: one `cmd:`
    launch, one pool. A failed batch is split by `run_normalizer`: an eval
    sentence that fails is stage `normalize`, a suite unit fails alone as
    `<error>`.
    Any stage failure raises StageError with the stage name; artifacts
    written by completed stages stay in the output directory.
    """
    scheme = config.scheme()

    def stage(name: str, fn):
        try:
            return fn()
        except Exception as exc:
            raise StageError(name, exc) from exc

    normalizer = stage("load-resources", lambda: build_normalizer(config))
    out_dir = config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    def read_eval_corpus():
        original, gold = read_lines(config.eval_original), read_lines(config.eval_gold)
        # checked here, before a normalizer that may be slow runs
        if len(original) != len(gold):
            raise ParseError(
                f"{len(gold)} gold lines for {len(original)} original lines",
                path=str(config.eval_gold),
            )
        return original, gold

    original, gold = stage("read-eval-corpus", read_eval_corpus)
    suite = stage("load-suite", lambda: load_suite(config.suite))
    sentences = [unit.sentence for unit in suite.units]

    def normalize():
        if config.predictions is not None:
            return read_predictions(config.predictions, len(original)), normalizer
        outputs = run_normalizer(normalizer, original + sentences, fatal=len(original))
        # run_suite's one call gets the suite's outputs, by position
        return outputs[: len(original)], lambda _: outputs[len(original):]

    predicted, suite_normalizer = stage("normalize", normalize)
    (out_dir / "predictions.txt").write_text(
        "".join(line + "\n" for line in predicted), encoding="utf-8"
    )

    metrics, _ = stage(
        "evaluate", lambda: evaluate_sentences(original, predicted, gold, scheme)
    )
    suite_report = stage("checklist", lambda: run_suite(suite_normalizer, suite))

    checksums = {}
    for key in INPUT_FILE_KEYS:
        path = getattr(config, key)
        if path is not None:
            checksums[key] = file_checksum(path)

    report = ExperimentReport(
        config=config.to_dict(),
        checksums=checksums,
        metrics=metrics,
        suite=suite_report,
        version=__version__,
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
    (out_dir / "report.json").write_text(
        json.dumps(report.to_dict(), ensure_ascii=False, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    (out_dir / "suite_report.txt").write_text(
        render_report(suite_report, "table") + "\n", encoding="utf-8"
    )
    return report
