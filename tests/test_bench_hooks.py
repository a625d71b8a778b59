"""The names the traced bench run hooks must exist in `luxnorm`.

`bench/layers.py` wraps each `(module, "name" or "Class.method")` in
`TARGETS`; a rename there would otherwise break only `bench/run.py --trace 1`.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from luxnorm import corrupt
from luxnorm.dictionary import VariantDictionary

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    for module_name, dotted, _ in layers.TARGETS:
        owner = importlib.import_module(module_name)
        for attr in dotted.split("."):
            assert hasattr(owner, attr), f"{module_name}.{dotted}"
            owner = getattr(owner, attr)
        assert callable(owner), f"{module_name}.{dotted}"


def test_lexicon_index_has_a_length():
    # the traced run records len() of what `Lexicon.deletes_index` returns
    from luxnorm.normalize import Lexicon

    assert len(Lexicon({"haus": 1, "hunn": 2, "gutt": 3}).deletes_index()) == 2


def test_traced_synth_records_sentence_and_tokenize_spans(monkeypatch):
    # `corrupt.sentence_us.*` and `tokenizer.tokenize_us.p50` come from these
    # spans of a serial synth run; a refactor that bypasses either name
    # would leave those metrics empty
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    dictionary = VariantDictionary({"gutt": {"gut": 1}})
    lines = ["e gutt Joer", "alles gutt.", "gutt"]
    with tracer.installed(layers.TARGETS):
        pairs = list(corrupt.iter_corrupted(lines, dictionary, seed=1, workers=1))
    names = [span.name for span in tracer.spans()]
    assert len(pairs) == len(lines)
    assert names.count("corrupt.corrupt_sentence") == len(lines)
    assert "tokenizer.tokenize" in names


def test_traced_normalize_records_route_spans(monkeypatch):
    # `normalize.ngram_ms.*`, `normalize.edit_ms.*` and
    # `normalize.ngram_index_s` come from these spans of a serial normalize
    # run; a refactor that bypasses one of the names would leave its
    # metrics empty
    from luxnorm.dictionary import build_reverse_index
    from luxnorm.normalize import Lexicon, Pipeline

    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    lexicon = Lexicon({"gutt": 5, "Joer": 3, "alles": 2})
    with tracer.installed(layers.TARGETS):
        pipeline = Pipeline(build_reverse_index(VariantDictionary({})), lexicon)
        outputs = pipeline.normalize_lines(["e gudd Joer", "alles gutt."], workers=1)
    names = {span.name for span in tracer.spans()}
    assert outputs == ["e gutt Joer", "alles gutt."]
    assert {
        "normalize.ngram_candidates",
        "normalize.edit_candidates",
        "normalize.NgramIndex.__init__",
    } <= names


def test_traced_eval_and_checklist_record_align_spans(monkeypatch):
    # `align.triple_ms.*`, `align.cells` and `align.nw_ms.p50` come from the
    # align spans; `layer_metrics` reads `checklist.correct_s` and
    # `checklist.preserve_s` with `trace.one`, which raises when a span is
    # missing
    from luxnorm import checklist, metrics
    from luxnorm.checklist import Setup, TestUnit

    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    units = [TestUnit(1, "spelling", Setup.CORRECT, "e gudd Joer", 1, "gutt"),
             TestUnit(2, "spelling", Setup.PRESERVE, "alles gutt.")]
    with tracer.installed(layers.TARGETS):
        report, _ = metrics.evaluate_sentences(
            ["e gudd Joer", "alles gutt."], ["e gutt Joer", "alles gutt."],
            ["e gutt Joer", "alles gutt."])
        suite_report = checklist.run_suite(units, [unit.sentence for unit in units])
    names = [span.name for span in tracer.spans()]
    assert (report.tp, report.fp, report.fn) == (1, 0, 0)
    assert suite_report.cell("spelling", Setup.CORRECT).success_rate == 0
    assert suite_report.cell("spelling", Setup.PRESERVE).success_rate == 100
    assert names.count("align.align_triple") == 2
    assert "align.needleman_wunsch" in names
    assert names.count("checklist.run_correct_setup") == 1
    assert names.count("checklist.run_preserve_setup") == 1


def test_traced_run_records_one_normalize_and_one_suite_span(monkeypatch, workspace, tmp_path):
    # `experiment.normalize_s` and `experiment.checklist_s` sum these spans
    # among the children of `experiment.run_experiment`; the eval corpus and
    # the suite go to the normalizer as one batch, which the checklist reuses
    from luxnorm import experiment
    from luxnorm.config import RunConfig

    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    config = RunConfig(
        dictionary=workspace["dict"],
        lexicon=workspace["lexicon"],
        eval_original=workspace["orig"],
        eval_gold=workspace["gold"],
        output_dir=tmp_path / "out",
    )
    with tracer.installed(layers.TARGETS):
        experiment.run_experiment(config)
    spans = tracer.spans()
    (run,) = [i for i, span in enumerate(spans) if span.name == "experiment.run_experiment"]
    for name in ("normalize.Pipeline.normalize_lines", "checklist.run_suite"):
        assert [span.parent for span in spans if span.name == name] == [run], name
