"""The four benchmark workloads and the checks on their outputs.

Each workload makes the public calls that the matching `luxnorm` CLI
handler makes, in the same order, and reports its set-up time (loading
inputs and building indexes, until the first sentence could be processed)
and its job time (from then until every output is written). Functions
are looked up on their modules at call time, so the tracer's wrappers see
every call.

Requires `src` on sys.path (see run.py).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import luxnorm.align as align_mod
import luxnorm.checklist as checklist_mod
import luxnorm.config as config_mod
import luxnorm.corrupt as corrupt_mod
import luxnorm.dictionary as dictionary_mod
import luxnorm.experiment as experiment_mod
import luxnorm.metrics as metrics_mod
import luxnorm.normalize as normalize_mod
import luxnorm.tokenizer as tokenizer_mod

from gen import Inputs
from tracer import Tracer

SYNTH_WORKERS = 2
NORMALIZE_WORKERS = 1
RUN_WORKERS = 2


@dataclass
class Rep:
    """One set-up plus job, with what the checks need."""

    setup_s: float
    job_s: float
    out_dir: Path
    state: dict = field(default_factory=dict)


@dataclass
class Check:
    attempted: int
    failed: int
    err: float | None = None
    checklist_pass: float | None = None
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        if len(self.problems) < 5:
            self.problems.append(message)


def _sha256(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "big"))
        digest.update(part)
    return digest.hexdigest()


# --- synth-corpus ---------------------------------------------------------

def setup_synth(inputs: Inputs):
    return dictionary_mod.load_dictionary(inputs.files["dictionary"])


def run_synth(inputs: Inputs, out_dir: Path, workers: int = SYNTH_WORKERS) -> Rep:
    """`luxnorm synth --dict --corpus --out --seed --stats --workers`."""
    start = time.perf_counter()
    dictionary = setup_synth(inputs)
    ready = time.perf_counter()
    effective = config_mod.effective_workers(workers)
    stats = corrupt_mod.CorpusStats()
    out_path = out_dir / "pairs.jsonl"
    with open(inputs.files["corpus"], encoding="utf-8") as corpus, open(
        out_path, "w", encoding="utf-8", newline="\n"
    ) as out:
        for pair in corrupt_mod.iter_corrupted(
            corpus, dictionary, inputs.seed, workers=effective, stats=stats
        ):
            out.write(pair.to_json() + "\n")
    if stats.pair_count == 0:
        raise ValueError("corpus contains no non-blank sentences")
    (out_dir / "stats.json").write_text(
        json.dumps(stats.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    done = time.perf_counter()
    return Rep(ready - start, done - ready, out_dir, {"stats": stats})


def check_synth(inputs: Inputs, rep: Rep) -> Check:
    """One pair per non-blank line, target equal to the input line, and
    `changed` equal to the number of differing token positions."""
    lines = [line for line in experiment_mod.read_lines(inputs.files["corpus"]) if line.strip()]
    pairs = (rep.out_dir / "pairs.jsonl").read_text(encoding="utf-8").splitlines()
    check = Check(attempted=len(lines), failed=0)
    if len(pairs) != len(lines):
        check.fail(f"{len(pairs)} pairs for {len(lines)} sentences", len(lines))
        return check
    for index, (line, raw) in enumerate(zip(lines, pairs)):
        pair = json.loads(raw)
        source = tokenizer_mod.tokenize(pair["source"])
        target = tokenizer_mod.tokenize(pair["target"])
        differing = sum(a != b for a, b in zip(source, target))
        if pair["target"] != line or len(source) != len(target) or differing != pair["changed"]:
            check.fail(f"pair {index}: {raw}")
    return check


def digest_synth(rep: Rep) -> str:
    return _sha256((rep.out_dir / "pairs.jsonl").read_bytes(), (rep.out_dir / "stats.json").read_bytes())


# --- normalize-noisy ------------------------------------------------------

def build_pipeline(inputs: Inputs):
    """The set-up of `luxnorm normalize` with its default flags."""
    dictionary = dictionary_mod.load_dictionary(inputs.files["dictionary"])
    lexicon = normalize_mod.load_lexicon(inputs.files["lexicon"])
    return normalize_mod.Pipeline(
        dictionary_mod.build_reverse_index(dictionary),
        lexicon,
        normalize_mod.PipelineConfig(
            weights=(0.4, 0.2, 0.2, 0.2), max_edit_distance=2, ngram_n=3, topk=10
        ),
    )


def run_normalize(inputs: Inputs, out_dir: Path) -> Rep:
    """`luxnorm normalize --dict --lexicon --in --out --workers`."""
    start = time.perf_counter()
    pipeline = build_pipeline(inputs)
    ready = time.perf_counter()
    lines = experiment_mod.read_lines(inputs.files["noisy"])
    outputs = pipeline.normalize_lines(lines, workers=config_mod.effective_workers(NORMALIZE_WORKERS))
    out_path = out_dir / "normalized.txt"
    out_path.write_text("".join(line + "\n" for line in outputs), encoding="utf-8")
    done = time.perf_counter()
    return Rep(ready - start, done - ready, out_dir, {"lexicon": pipeline.lexicon})


def check_normalized(lines: list[str], outputs: list[str], lexicon, check: Check) -> None:
    """Line count and per-line token count preserved; punctuation and
    lexicon tokens unchanged."""
    if len(outputs) != len(lines):
        check.fail(f"{len(outputs)} output lines for {len(lines)} inputs", len(lines))
        return
    for index, (line, out) in enumerate(zip(lines, outputs)):
        before = tokenizer_mod.tokenize(line)
        after = tokenizer_mod.tokenize(out)
        ok = len(before) == len(after)
        for token, produced in zip(before, after):
            if not ok:
                break
            if tokenizer_mod.is_punctuation(token):
                ok = token == produced
            else:
                _prefix, core = tokenizer_mod.split_clitic(token)
                if core and lexicon.contains_folded(core):
                    ok = token == produced
        if not ok:
            check.fail(f"line {index}: {line!r} -> {out!r}")


def check_normalize(inputs: Inputs, rep: Rep) -> Check:
    lines = experiment_mod.read_lines(inputs.files["noisy"])
    outputs = experiment_mod.read_lines(rep.out_dir / "normalized.txt")
    check = Check(attempted=len(lines), failed=0)
    check_normalized(lines, outputs, rep.state["lexicon"], check)
    if check.failed == 0:
        gold = experiment_mod.read_lines(inputs.files["gold"])
        report, _ = metrics_mod.evaluate_sentences(lines, outputs, gold)
        check.err = float(report.err)
    return check


def digest_normalize(rep: Rep) -> str:
    return _sha256((rep.out_dir / "normalized.txt").read_bytes())


# --- eval-long ------------------------------------------------------------

def setup_eval(inputs: Inputs) -> tuple[list[str], list[str], list[str]]:
    return tuple(experiment_mod.read_lines(inputs.files[name])
                 for name in ("original", "predicted", "gold"))


def run_eval(inputs: Inputs, out_dir: Path) -> Rep:
    """`luxnorm eval --orig --pred --gold --report` (JSON, default scheme)."""
    start = time.perf_counter()
    original, predicted, gold = setup_eval(inputs)
    ready = time.perf_counter()
    scheme = align_mod.ScoringScheme(1.0, -1.0, -0.5)
    report, rows = metrics_mod.evaluate_sentences(
        original, predicted, gold, scheme, double_count_miscorrections=False
    )
    data = {
        "metrics": report.to_dict(),
        "scoring_scheme": {"match_bonus": 1.0, "mismatch_penalty": -1.0, "gap_penalty": -0.5},
        "double_count_miscorrections": False,
    }
    text = json.dumps(data, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    (out_dir / "report.json").write_text(text, encoding="utf-8")
    done = time.perf_counter()
    return Rep(ready - start, done - ready, out_dir,
               {"report": report, "rows": rows, "inputs": (original, predicted, gold)})


def check_eval(inputs: Inputs, rep: Rep) -> Check:
    """Each aligned row reproduces its input tokens, and there is one
    judgment per column."""
    original, predicted, gold = rep.state["inputs"]
    rows = rep.state["rows"]
    check = Check(attempted=len(original), failed=0)
    if len(rows) != len(original):
        check.fail(f"{len(rows)} evaluated sentences for {len(original)} inputs", len(original))
        return check
    for row, sentences in zip(rows, zip(original, predicted, gold)):
        ok = len(row.judgments) == len(row.columns)
        for side, sentence in enumerate(sentences):
            kept = [column[side] for column in row.columns if column[side] is not align_mod.GAP]
            ok = ok and kept == tokenizer_mod.tokenize(sentence)
        if not ok:
            check.fail(f"sentence {row.index} misaligned")
    err = rep.state["report"].err
    check.err = None if err is None else float(err)
    return check


def digest_eval(rep: Rep) -> str:
    columns = [
        [[None if token is align_mod.GAP else token for token in column] for column in row.columns]
        for row in rep.state["rows"]
    ]
    return _sha256((rep.out_dir / "report.json").read_bytes(),
                   json.dumps(columns, ensure_ascii=False).encode())


# --- run-suite ------------------------------------------------------------

def suite_config(inputs: Inputs, out_dir: Path):
    config = config_mod.build_config({
        "dictionary": inputs.files["dictionary"],
        "lexicon": inputs.files["lexicon"],
        "eval_original": inputs.files["noisy"],
        "eval_gold": inputs.files["gold"],
        "output_dir": out_dir,
        "workers": RUN_WORKERS,
    })
    if config.suite is None:
        config.suite = checklist_mod.default_suite_path()
    return config


def setup_suite(inputs: Inputs):
    """The set-up calls of `run_experiment`, without the rest of the run."""
    config = suite_config(inputs, inputs.directory)
    return experiment_mod.build_normalizer(config), checklist_mod.load_suite(config.suite)


def run_suite(inputs: Inputs, out_dir: Path) -> Rep:
    """`luxnorm run --dict --lexicon --eval-orig --eval-gold --out-dir --workers`.

    Set-up happens inside `run_experiment` (`build_normalizer`, then
    `load_suite`), so those two calls are timed by wrapping them; the job
    is the rest of the run. Under an active tracer the stopwatch wraps the
    tracer's wrappers, so both see the calls.
    """
    stopwatch = Tracer()
    targets = [
        ("luxnorm.experiment", "build_normalizer", None),
        ("luxnorm.checklist", "load_suite", None),
    ]
    with stopwatch.installed(targets):
        start = time.perf_counter()
        report = experiment_mod.run_experiment(suite_config(inputs, out_dir))
        done = time.perf_counter()
    setup = sum(span.duration for span in stopwatch.spans())
    total = done - start
    return Rep(setup, total - setup, out_dir, {"report": report})


def check_suite(inputs: Inputs, rep: Rep) -> Check:
    """Predictions pass the normalize checks; all 420 units are judged and
    none produced `<error>`."""
    report = rep.state["report"]
    lines = experiment_mod.read_lines(inputs.files["noisy"])
    outputs = experiment_mod.read_lines(rep.out_dir / "predictions.txt")
    units = checklist_mod.EXPECTED_TOTAL_UNITS
    check = Check(attempted=len(lines) + units, failed=0)
    check_normalized(lines, outputs, normalize_mod.load_lexicon(inputs.files["lexicon"]), check)
    cells = report.suite.cells.values()
    judged = sum(cell.total for cell in cells)
    errors = sum(f.produced == "<error>" for cell in cells for f in cell.failures)
    if judged != units:
        check.fail(f"{judged} suite units judged, expected {units}", abs(units - judged))
    for _ in range(errors):
        check.fail("suite unit produced <error>")
    check.err = None if report.metrics.err is None else float(report.metrics.err)
    check.checklist_pass = sum(cell.successes for cell in cells) / units
    return check


def digest_suite(rep: Rep) -> str:
    data = rep.state["report"].to_dict()
    for volatile in ("timestamp", "config"):
        data.pop(volatile)
    return _sha256((rep.out_dir / "predictions.txt").read_bytes(),
                   (rep.out_dir / "suite_report.txt").read_bytes(),
                   json.dumps(data, sort_keys=True, ensure_ascii=False).encode())


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Inputs], object]
    run: Callable[..., Rep]
    check: Callable[[Inputs, Rep], Check]
    digest: Callable[[Rep], str]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth-corpus", setup_synth, run_synth, check_synth, digest_synth),
        Workload("normalize-noisy", build_pipeline, run_normalize, check_normalize, digest_normalize),
        Workload("eval-long", setup_eval, run_eval, check_eval, digest_eval),
        Workload("run-suite", setup_suite, run_suite, check_suite, digest_suite),
    )
}
