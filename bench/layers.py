"""The traced run: per-layer metrics and the traffic check.

Runs all four workloads once with the tracer installed, plus the
worker-count comparisons, and derives every per-layer metric from the
recorded spans. Per-call timings use self time (a span's duration minus
its traced children), so a lazily built index is charged to the index,
not to the call that triggered it.
"""

from __future__ import annotations

import gc
import statistics
from pathlib import Path

import luxnorm.experiment as experiment_mod
import luxnorm.normalize as normalize_mod

import workloads as wl
from gen import Inputs
from tracer import Span, Tracer


def _note_len(args, result):
    return None if result is None else len(result)


_ALPHABET = frozenset(normalize_mod.LUX_ALPHABET)


def _note_edit(args, result):
    return _ALPHABET.issuperset(args[0])


def _note_token(args, result):
    pipeline, token = args[0], args[1]
    return (token, result, pipeline.lexicon.contains_folded(token))


def _note_triple(args, result):
    lengths = [len(seq) for seq in args[:3]]
    return (max(lengths), (lengths[0] + 1) * (lengths[1] + 1) * (lengths[2] + 1))


def _note_pair(args, result):
    return (result.changed_tokens, result.token_count) if result is not None else None


# (module, public function or Class.method, note computed per call)
TARGETS = [
    ("luxnorm.tokenizer", "tokenize", None),
    ("luxnorm.dictionary", "load_dictionary", None),
    ("luxnorm.dictionary", "build_reverse_index", None),
    ("luxnorm.dictionary", "ReverseIndex.lookup", None),
    ("luxnorm.dictionary", "ReverseIndex.lookup_folded", None),
    ("luxnorm.corrupt", "corrupt_sentence", _note_pair),
    ("luxnorm.corrupt", "iter_corrupted", None),
    ("luxnorm.normalize", "load_lexicon", None),
    ("luxnorm.normalize", "NgramIndex.__init__", None),
    ("luxnorm.normalize", "Lexicon.deletes_index", _note_len),
    ("luxnorm.normalize", "edit_candidates", _note_edit),
    ("luxnorm.normalize", "ngram_candidates", None),
    ("luxnorm.normalize", "Pipeline.candidates", _note_len),
    ("luxnorm.normalize", "Pipeline.normalize_token", _note_token),
    ("luxnorm.normalize", "Pipeline.normalize_sentence", None),
    ("luxnorm.normalize", "Pipeline.normalize_lines", None),
    ("luxnorm.align", "align_triple", _note_triple),
    ("luxnorm.align", "needleman_wunsch", None),
    ("luxnorm.metrics", "evaluate_sentences", None),
    ("luxnorm.metrics", "classify_columns", None),
    ("luxnorm.metrics", "compute_metrics", None),
    ("luxnorm.metrics", "cer", None),
    ("luxnorm.checklist", "load_suite", None),
    ("luxnorm.checklist", "run_suite", None),
    ("luxnorm.checklist", "run_correct_setup", None),
    ("luxnorm.checklist", "run_preserve_setup", None),
    ("luxnorm.experiment", "build_normalizer", None),
    ("luxnorm.experiment", "run_experiment", None),
]

# Span names whose self time counts as "candidate routes plus index builds".
ROUTE_SPANS = {
    "normalize.edit_candidates",
    "normalize.ngram_candidates",
    "normalize.Lexicon.deletes_index",
    "normalize.NgramIndex.__init__",
    "dictionary.ReverseIndex.lookup",
    "dictionary.ReverseIndex.lookup_folded",
}


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


class Trace:
    """Spans of one traced pass, with self times and per-run lookups."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        self.self_time = [span.duration - c for span, c in zip(spans, covered)]
        self._by_run: dict[str, list[int]] = {}
        for i, span in enumerate(spans):
            self._by_run.setdefault(span.run, []).append(i)

    def select(self, run: str, name: str | None = None) -> list[int]:
        """Indexes of the spans of `run`, optionally only those named `name`."""
        return [i for i in self._by_run.get(run, ()) if name is None or self.spans[i].name == name]

    def one(self, run: str, name: str) -> Span:
        found = self.select(run, name)
        if not found:
            raise LookupError(f"no {name} span in run {run}")
        return self.spans[found[0]]


def traced_pass(all_inputs: dict[str, Inputs], work: Path, tracer: Tracer, overhead_of: tuple[str, ...]
                ) -> tuple[float, list[tuple[str, wl.Check]]]:
    """Run every workload once under the tracer and check its outputs.

    Runs: synth-corpus at 2 workers (the workload) and at 1 worker,
    normalize-noisy, the run-suite eval batch through `normalize_lines`
    at 1 and 2 workers on fresh pipelines, eval-long, and run-suite.
    The checks run with tracing paused. The workloads in `overhead_of`
    also run once with tracing paused just before their traced run;
    returns their summed traced job time over the summed untraced one,
    minus 1, and the checks.
    """
    checks: list[tuple[str, wl.Check]] = []
    traced_s = untraced_s = 0.0

    def traced(run: str, workload: str, call) -> None:
        nonlocal traced_s, untraced_s
        out_dir = work / "traced" / run
        out_dir.mkdir(parents=True, exist_ok=True)
        if run in overhead_of:
            gc.collect()
            with tracer.paused():
                untraced_s += call(all_inputs[workload], out_dir).job_s
        gc.collect()
        tracer.run = run
        with tracer.span("job"):
            rep = call(all_inputs[workload], out_dir)
        if run in overhead_of:
            traced_s += rep.job_s
        with tracer.paused():
            checks.append((run, wl.WORKLOADS[workload].check(all_inputs[workload], rep)))

    suite_inputs = all_inputs["run-suite"]
    lines = experiment_mod.read_lines(suite_inputs.files["noisy"])
    with tracer.installed(TARGETS):
        traced("synth-corpus", "synth-corpus", wl.run_synth)
        traced("synth-corpus.w1", "synth-corpus",
               lambda inputs, out_dir: wl.run_synth(inputs, out_dir, workers=1))
        traced("normalize-noisy", "normalize-noisy", wl.run_normalize)
        for workers in (1, 2):
            gc.collect()
            tracer.run = f"lines.w{workers}"
            wl.build_pipeline(suite_inputs).normalize_lines(lines, workers=workers)
        traced("eval-long", "eval-long", wl.run_eval)
        traced("run-suite", "run-suite", wl.run_suite)
    return traced_s / untraced_s - 1.0, checks


def layer_metrics(trace: Trace) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    spans, self_time = trace.spans, trace.self_time
    m: dict[str, tuple[float, str]] = {}

    def durations(run: str, name: str) -> list[float]:
        return [spans[i].duration for i in trace.select(run, name)]

    # dictionary and tokenizer
    m["dictionary.load_s"] = (trace.one("normalize-noisy", "dictionary.load_dictionary").duration, "s")
    m["dictionary.reverse_index_s"] = (
        trace.one("normalize-noisy", "dictionary.build_reverse_index").duration, "s")
    m["tokenizer.tokenize_us.p50"] = (
        1e6 * statistics.median(durations("synth-corpus.w1", "tokenizer.tokenize")), "us")

    # corrupt
    sentence = durations("synth-corpus.w1", "corrupt.corrupt_sentence")
    m["corrupt.sentence_us.p50"] = (1e6 * statistics.median(sentence), "us")
    m["corrupt.sentence_us.p99"] = (1e6 * quantile(sentence, 0.99), "us")
    m["corrupt.iter_s.w1"] = (trace.one("synth-corpus.w1", "corrupt.iter_corrupted").duration, "s")
    m["corrupt.iter_s.w2"] = (trace.one("synth-corpus", "corrupt.iter_corrupted").duration, "s")
    pairs = [spans[i].note for i in trace.select("synth-corpus.w1", "corrupt.corrupt_sentence")]
    m["corrupt.replacement_rate"] = (
        sum(c for c, _ in pairs) / sum(t for _, t in pairs), "ratio")

    # normalize: set-up and index builds
    run = "normalize-noisy"
    m["normalize.load_lexicon_s"] = (trace.one(run, "normalize.load_lexicon").duration, "s")
    m["normalize.ngram_index_s"] = (trace.one(run, "normalize.NgramIndex.__init__").duration, "s")
    deletes = trace.one(run, "normalize.Lexicon.deletes_index")  # the first call builds it
    m["normalize.deletes_index_s"] = (deletes.duration, "s")
    m["normalize.deletes_index_keys"] = (float(deletes.note), "count")

    # normalize: candidate routes
    edit = trace.select(run, "normalize.edit_candidates")
    alpha = [1e3 * self_time[i] for i in edit if spans[i].note]
    other = [1e3 * self_time[i] for i in edit if not spans[i].note]
    m["normalize.edit_ms.p50"] = (statistics.median(alpha), "ms")
    m["normalize.edit_ms.p99"] = (quantile(alpha, 0.99), "ms")
    m["normalize.edit_ms.count"] = (float(len(alpha)), "count")
    m["normalize.edit_nonalpha_ms.mean"] = (statistics.fmean(other) if other else 0.0, "ms")
    m["normalize.edit_nonalpha_ms.max"] = (max(other, default=0.0), "ms")
    m["normalize.edit_nonalpha_ms.count"] = (float(len(other)), "count")
    ngram = [1e3 * d for d in durations(run, "normalize.ngram_candidates")]
    m["normalize.ngram_ms.p50"] = (statistics.median(ngram), "ms")
    m["normalize.ngram_ms.p99"] = (quantile(ngram, 0.99), "ms")
    variant = durations(run, "dictionary.ReverseIndex.lookup") + durations(
        run, "dictionary.ReverseIndex.lookup_folded")
    m["normalize.variant_us.p50"] = (1e6 * statistics.median(variant), "us")
    pools = [spans[i].note for i in trace.select(run, "normalize.Pipeline.candidates")]
    m["normalize.pool_size.mean"] = (statistics.fmean(pools), "count")

    # normalize: traffic shape
    calls = [spans[i].note for i in trace.select(run, "normalize.Pipeline.normalize_token")]
    types = {token for token, _, _ in calls}
    oov = {token: result for token, result, known in calls if not known}
    m["normalize.type_token_ratio"] = (len(types) / len(calls), "ratio")
    m["normalize.lexicon_hit_ratio"] = (sum(known for _, _, known in calls) / len(calls), "ratio")
    m["normalize.changed_ratio"] = (
        sum(token != result for token, result in oov.items()) / max(1, len(oov)), "ratio")
    sentence_ms = [1e3 * d for d in durations(run, "normalize.Pipeline.normalize_sentence")]
    m["normalize.sentence_ms.p50"] = (statistics.median(sentence_ms), "ms")
    m["normalize.sentence_ms.p99"] = (quantile(sentence_ms, 0.99), "ms")
    for workers in (1, 2):
        m[f"normalize.lines_s.w{workers}"] = (
            trace.one(f"lines.w{workers}", "normalize.Pipeline.normalize_lines").duration, "s")

    # align and metrics
    run = "eval-long"
    triples = trace.select(run, "align.align_triple")
    triple_ms = [1e3 * spans[i].duration for i in triples]
    m["align.triple_ms.p50"] = (statistics.median(triple_ms), "ms")
    m["align.triple_ms.p99"] = (quantile(triple_ms, 0.99), "ms")
    for label, low, high in (("len_le15", 0, 15), ("len_16_30", 16, 30), ("len_gt30", 31, 10**9)):
        bucket = [ms for i, ms in zip(triples, triple_ms) if low <= spans[i].note[0] <= high]
        m[f"align.triple_ms.{label}"] = (statistics.fmean(bucket) if bucket else 0.0, "ms")
    m["align.cells"] = (float(sum(spans[i].note[1] for i in triples)), "count")
    m["align.nw_ms.p50"] = (
        1e3 * statistics.median(durations("run-suite", "align.needleman_wunsch")), "ms")
    m["metrics.evaluate_s"] = (trace.one(run, "metrics.evaluate_sentences").duration, "s")
    m["metrics.cer_s"] = (trace.one(run, "metrics.cer").duration, "s")
    m["metrics.classify_s"] = (sum(durations(run, "metrics.classify_columns")), "s")

    # checklist and experiment stages
    run = "run-suite"
    m["checklist.load_suite_s"] = (trace.one(run, "checklist.load_suite").duration, "s")
    m["checklist.correct_s"] = (trace.one(run, "checklist.run_correct_setup").duration, "s")
    m["checklist.preserve_s"] = (trace.one(run, "checklist.run_preserve_setup").duration, "s")
    experiment = trace.select(run, "experiment.run_experiment")[0]

    def stage(name: str) -> float:
        return sum(spans[i].duration for i in trace.select(run, name) if spans[i].parent == experiment)

    m["experiment.load_resources_s"] = (stage("experiment.build_normalizer"), "s")
    m["experiment.normalize_s"] = (stage("normalize.Pipeline.normalize_lines"), "s")
    m["experiment.evaluate_s"] = (stage("metrics.evaluate_sentences"), "s")
    m["experiment.checklist_s"] = (stage("checklist.run_suite"), "s")
    return m


def traffic_problems(trace: Trace) -> list[str]:
    """Each workload exercises the layers it claims and bypasses the rest."""
    problems: list[str] = []
    spans, self_time = trace.spans, trace.self_time

    def names(run: str) -> list[str]:
        return [spans[i].name for i in trace.select(run)]

    for run in ("synth-corpus", "synth-corpus.w1", "eval-long"):
        calls = sum(name.startswith("normalize.") for name in names(run))
        if calls:
            problems.append(f"{run} made {calls} normalize calls, expected 0")
    calls = names("normalize-noisy").count("align.align_triple")
    if calls:
        problems.append(f"normalize-noisy made {calls} align_triple calls, expected 0")
    for run, claim, owned in (
        ("eval-long", "align", lambda name: name.startswith("align.")),
        ("normalize-noisy", "candidate routes and index builds", ROUTE_SPANS.__contains__),
    ):
        job = trace.one(run, "job").duration
        share = sum(self_time[i] for i in trace.select(run) if owned(spans[i].name)) / job
        if share <= 0.5:
            problems.append(f"{claim} hold {share:.0%} of {run} self time, expected most")
    return problems
