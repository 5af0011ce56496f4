"""The benchmark's tracer wraps soe's functions by name from outside the
package; every name it traces must still resolve, and the classify
predicates must still be reached through the names it wraps."""

import importlib
from pathlib import Path

import pytest

import soe.classify
from soe.examples import three_by_three


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    return importlib.import_module("spans")


def test_every_traced_name_installs_and_uninstalls(spans):
    original = soe.classify.classify
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert soe.classify.classify is not original
        soe.classify.classify(three_by_three())
    finally:
        tracer.uninstall()
    assert soe.classify.classify is original
    assert tracer.counts["classify.classify.calls"] == 1
    assert tracer.counts["classify.predicates.calls"] == 6
