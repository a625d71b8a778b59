"""Full experiment orchestration: normalize, evaluate, run the test suite.

It also sends batches to a normalizer: it builds one from the config,
runs the external line protocol, and holds the failure policy for a batch.

Reports embed the exact configuration and sha256 checksums of every input
file, so a run can be audited and reproduced; re-running with the same
config yields an identical report except for the timestamp.

External normalizers plug in through a line protocol: one sentence per
line on stdin, exactly one normalized sentence per line on stdout.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import logging
import shlex
import subprocess
from dataclasses import dataclass
from typing import Callable, Sequence

from luxnorm import __version__
from luxnorm.checklist import SuiteReport, load_suite, render_report, run_suite
from luxnorm.config import INPUT_FILE_KEYS, RunConfig, effective_workers
from luxnorm.dictionary import build_reverse_index, load_dictionary
from luxnorm.errors import ConfigError, LuxnormError, ProtocolError
from luxnorm.errors import decode_text, read_lines, read_parallel, split_lines
from luxnorm.metrics import MetricsReport, evaluate_sentences
from luxnorm.normalize import Pipeline, load_lexicon

logger = logging.getLogger(__name__)

Normalizer = Callable[[Sequence[str]], list[str]]


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


def run_external_normalizer(command: str | Sequence[str], sentences: Sequence[str]) -> list[str]:
    """Run an external normalizer over a batch via the line protocol.

    Writes one sentence per line (UTF-8, LF) to the child's stdin and
    expects exactly one UTF-8 output line per input line, in order, read
    by the rules of `decode_text` and `split_lines`.
    """
    if not sentences:
        return []
    argv = shlex.split(command) if isinstance(command, str) else list(command)
    try:
        completed = subprocess.run(
            argv,
            input=("\n".join(sentences) + "\n").encode("utf-8"),
            capture_output=True,
        )
    except OSError as exc:
        raise ProtocolError(f"failed to launch normalizer {argv!r}: {exc}") from exc
    if completed.returncode != 0:
        stderr = completed.stderr.decode("utf-8", errors="replace").strip()
        raise ProtocolError(
            f"normalizer {argv!r} exited with status {completed.returncode}"
            + (f": {stderr}" if stderr else "")
        )
    try:
        lines = split_lines(decode_text(completed.stdout))
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"normalizer {argv!r} wrote output that is not UTF-8: {exc}") from None
    if len(lines) != len(sentences):
        raise ProtocolError(
            f"normalizer wrote {len(lines)} lines for {len(sentences)} inputs"
        )
    return lines


def run_normalizer(
    normalizer: Normalizer, sentences: list[str], fatal: int = 0
) -> list[str | None]:
    """Normalize a batch in one call; split a failed batch and retry.

    A batch that raises or returns the wrong number of lines runs again
    in two parts: after its first `fatal` sentences if it holds more,
    else in halves. A part inside the first `fatal` sentences re-raises
    the error (ProtocolError for a line-count mismatch); any other
    sentence that fails alone comes back as None. One bad sentence costs
    about 2 log2(n) calls; a normalizer that always fails, 2n - 1.
    """
    try:
        outputs = list(normalizer(sentences))
        if len(outputs) != len(sentences):
            raise ProtocolError(
                f"normalizer returned {len(outputs)} lines for {len(sentences)} inputs"
            )
        return outputs
    except Exception as exc:  # noqa: BLE001 - one bad sentence must not sink the batch
        if 0 < len(sentences) <= fatal:
            raise
        if len(sentences) < 2:
            logger.warning("normalization failed for %r: %s", sentences, exc)
            return [None] * len(sentences)
    cut = fatal if fatal else len(sentences) // 2
    head = run_normalizer(normalizer, sentences[:cut], fatal)
    return head + run_normalizer(normalizer, sentences[cut:])


def build_normalizer(config: RunConfig) -> Normalizer:
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

    The eval corpus and the suite (the suite alone under `--pred`) are
    normalized as one batch in stage `normalize`: one `cmd:` launch, one
    pool. A failed batch is split by `run_normalizer`: an eval sentence
    that fails is stage `normalize`, a suite unit fails alone as `<error>`.
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

    # line counts, `--pred`'s too, are checked here, before a normalizer that may be slow runs
    paths = [config.eval_original, config.eval_gold]
    if config.predictions is not None:
        paths.append(config.predictions)
    original, gold, *given = stage("read-eval-corpus", lambda: read_parallel(*paths))
    suite = stage("load-suite", lambda: load_suite(config.suite))
    inputs = [] if given else original
    sentences = inputs + [unit.sentence for unit in suite.units]
    outputs = stage("normalize", lambda: run_normalizer(normalizer, sentences, fatal=len(inputs)))
    predicted = given[0] if given else outputs[: len(inputs)]
    suite_outputs = outputs[len(inputs):]
    (out_dir / "predictions.txt").write_text(
        "".join(line + "\n" for line in predicted), encoding="utf-8"
    )

    metrics, _ = stage(
        "evaluate", lambda: evaluate_sentences(original, predicted, gold, scheme)
    )
    suite_report = stage("checklist", lambda: run_suite(suite, suite_outputs))

    checksums = {}
    for key in INPUT_FILE_KEYS:
        path = getattr(config, key)
        if path is not None:
            checksums[key] = hashlib.sha256(path.read_bytes()).hexdigest()

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
