"""The names the traced bench run hooks must exist in `luxnorm`.

`bench/layers.py` wraps each `(module, "name" or "Class.method")` in
`TARGETS`; a rename there would otherwise break only `bench/run.py --trace 1`.
"""

from __future__ import annotations

import importlib
from pathlib import Path

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
