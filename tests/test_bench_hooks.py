"""The benchmark's tracer wraps soe's functions by name from outside the
package; every name it traces must still resolve, and the classify
predicates must still be reached through the names it wraps."""

import importlib
from pathlib import Path

import pytest

import soe.classify
import soe.closure
import soe.statprop
from soe.examples import deterministic_pair, three_by_three


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


def test_listed_families_and_testable_systems_stay_traced(spans):
    """Listing the members of an eigen system still goes through
    `intersection_closure(ground, generators)`, and `testable_sps` still opens
    its span, so the closure and statprop layers of a traced run do not read 0."""
    entity = three_by_three()
    tracer = spans.Tracer()
    try:
        tracer.install()
        system = soe.closure.eigen_closure_system(entity, "states")
        members = system.members
        soe.statprop.testable_sps(entity, "e")
    finally:
        tracer.uninstall()
    assert tracer.counts["closure.generators"] == len(system.generators) > 0
    assert tracer.counts["closure.members"] == len(members) > 0
    assert tracer.counts["closure.intersection_closure.calls"] == 1
    assert tracer.counts["statprop.testable_sps.calls"] == 1
    assert "statprop.testable_sps" in {span[0] for span in tracer.spans}


def test_members_counter_counts_only_closure_system_listings(spans):
    """Testable systems sweep their coatoms without listing a ClosureSystem,
    so `closure.members` does not count them, and neither does asking the
    properties of a `closure_to_sps` system, which sweeps the masks of the
    system it holds; `members` of that system lists once, through
    `intersection_closure`."""
    entity = deterministic_pair()
    tracer = spans.Tracer()
    try:
        tracer.install()
        soe.statprop.testable_sps(entity, "h")
        soe.statprop.global_testable_sps(entity)
        system = soe.closure.eigen_closure_system(three_by_three(), "states")
        sps = soe.statprop.closure_to_sps(system.ground, system)
        assert sps.properties
        assert tracer.counts["closure.intersection_closure.calls"] == 0
        assert tracer.counts["closure.members"] == 0
        members = system.members
    finally:
        tracer.uninstall()
    assert tracer.counts["closure.intersection_closure.calls"] == 1
    assert tracer.counts["closure.members"] == len(members) == len(sps.properties) > 0
