"""The names the traced bench run hooks must exist in `luxnorm`.

`bench/layers.py` wraps each `(module, "name" or "Class.method")` in
`TARGETS`; a rename there would otherwise break only `bench/run.py --trace 1`.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from conftest import make_dictionary
from luxnorm import corrupt

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
    dictionary = make_dictionary({"gutt": {"gut": 1}})
    lines = ["e gutt Joer", "alles gutt.", "gutt"]
    with tracer.installed(layers.TARGETS):
        pairs = list(corrupt.iter_corrupted(lines, dictionary, seed=1, workers=1))
    names = [span.name for span in tracer.spans()]
    assert len(pairs) == len(lines)
    assert names.count("corrupt.corrupt_sentence") == len(lines)
    assert "tokenizer.tokenize" in names
