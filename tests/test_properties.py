"""Property tests over random small entities and mixtures.

The mixed relations are checked against their definitions written out from
`mixed_outcome_set`, and every witness of `classify` against the least
violating pair found by enumerating all pairs.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from soe.classify import (
    classify,
    is_central_atomic,
    is_experiment_atomic,
    is_experiment_determined,
    is_outcome_determined,
    is_state_atomic,
    is_state_determined,
)
from soe.entity import Entity, RelationKind
from soe.mixture import Event, MixedExperiment, MixedState, mixed_implies, mixed_orthogonal, mixed_outcome_set
from soe.statprop import is_distinguishable

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def entities(draw):
    states = [f"p{i}" for i in range(draw(st.integers(1, 4)))]
    experiments = [f"e{i}" for i in range(draw(st.integers(1, 4)))]
    outcomes = [f"x{i}" for i in range(draw(st.integers(1, 5)))]
    cell = st.frozensets(st.sampled_from(outcomes), min_size=1)
    return Entity(states, experiments, {(e, p): draw(cell) for e in experiments for p in states})


def subsets(pool):
    return st.frozensets(st.sampled_from(sorted(pool)), min_size=1)


def _expected(entity, kind, A, B):
    """(implies, orthogonal) from the definitions, A and B the base sets."""
    O = lambda E, P: mixed_outcome_set(entity, E, P)  # noqa: E731
    if kind.on == "state":
        scope = [kind.experiment] if kind.experiment else sorted(entity.experiments)
        pairs = [(O({e}, A), O({e}, B)) for e in scope]
    elif kind.on == "experiment":
        scope = [kind.state] if kind.state else sorted(entity.states)
        pairs = [(O(A, {p}), O(B, {p})) for p in scope]
    elif kind.on == "central":
        pairs = [(O(*A), O(*B))]
    else:
        cells = [entity.outcome_set(kind.experiment, kind.state)] if kind.experiment else [
            cell for _, cell in entity.cells()
        ]
        orth = not A & B and any(A <= cell and B <= cell for cell in cells)
        return A <= B, orth
    return all(a <= b for a, b in pairs), any(not a & b for a, b in pairs)


@SETTINGS
@given(entities(), st.data())
def test_mixed_relations_match_the_definitions(entity, data):
    pools = {"states": entity.states, "experiments": entity.experiments, "events": entity.outcomes}
    pick = lambda what: data.draw(subsets(pools[what]))  # noqa: E731
    e = data.draw(st.sampled_from(sorted(entity.experiments)))
    p = data.draw(st.sampled_from(sorted(entity.states)))
    wrap = {"state": MixedState, "experiment": MixedExperiment, "outcome": Event}
    for kind, what in (
        (RelationKind.state_global(), "states"),
        (RelationKind.state_for(e), "states"),
        (RelationKind.experiment_global(), "experiments"),
        (RelationKind.experiment_for(p), "experiments"),
        (RelationKind.outcome_global(), "events"),
        (RelationKind.outcome_for(e, p), "events"),
    ):
        A, B = pick(what), pick(what)
        expected = _expected(entity, kind, A, B)
        a, b = wrap[kind.on](A), wrap[kind.on](B)
        assert (mixed_implies(entity, kind, a, b), mixed_orthogonal(entity, kind, a, b)) == expected
    central = RelationKind.central()
    A = (pick("experiments"), pick("states"))
    B = (pick("experiments"), pick("states"))
    expected = _expected(entity, central, A, B)
    assert (mixed_implies(entity, central, A, B), mixed_orthogonal(entity, central, A, B)) == expected


def _least(pairs):
    return min(pairs, default=None)


def _brute_witnesses(entity):
    """The least violating pair of every classify predicate, by enumeration."""
    S, E, C = sorted(entity.states), sorted(entity.experiments), entity.couples()
    cell = lambda e, p: entity.outcome_set(e, p)  # noqa: E731
    row = lambda p: [cell(e, p) for e in E]  # noqa: E731
    column = lambda e: [cell(e, p) for p in S]  # noqa: E731
    inside = lambda u, v: all(x <= y for x, y in zip(u, v))  # noqa: E731
    total = lambda e: frozenset().union(*column(e))  # noqa: E731
    return {
        "outcome_determined": _least((a, b) for a, b in product(C, C) if a < b and cell(*a) == cell(*b)),
        "state_determined": _least((p, q) for p, q in product(S, S) if p < q and row(p) == row(q)),
        "experiment_determined": _least((e, f) for e, f in product(E, E) if e < f and column(e) == column(f)),
        "central_atomic": _least((a, b) for a, b in product(C, C) if a != b and cell(*a) <= cell(*b)),
        "state_atomic": _least((p, q) for p, q in product(S, S) if p != q and inside(row(p), row(q))),
        "experiment_atomic": _least((e, f) for e, f in product(E, E) if e != f and inside(column(e), column(f))),
        "d_classical": next((c for c in C if len(cell(*c)) != 1), None),
        "distinguishable": _least((e, f) for e, f in product(E, E) if e < f and total(e) & total(f)),
    }


@SETTINGS
@given(entities())
def test_classify_witnesses_are_the_least_violating_pairs(entity):
    expected = _brute_witnesses(entity)
    predicates = {
        "outcome_determined": is_outcome_determined,
        "state_determined": is_state_determined,
        "experiment_determined": is_experiment_determined,
        "central_atomic": is_central_atomic,
        "state_atomic": is_state_atomic,
        "experiment_atomic": is_experiment_atomic,
    }
    for name, predicate in predicates.items():
        assert predicate(entity) == (expected[name] is None, expected[name]), name
    assert is_distinguishable(entity) == (expected["distinguishable"] is None)
    report = classify(entity)
    assert report.witnesses == {name: w for name, w in expected.items() if w is not None}
    assert all(report.flags()[name] == (w is None) for name, w in expected.items())
