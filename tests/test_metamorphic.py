"""Metamorphic relations of `classify` (Chen et al., "Metamorphic Testing: A
Review of Challenges and Opportunities", ACM Computing Surveys 51(1), 2018):
relations between entities that a correct kernel keeps at any size, checked
on 40 x 40 entities, where the brute-force oracles cannot reach."""

import importlib
import random
from itertools import combinations
from pathlib import Path

import pytest

from soe.classify import classify, satisfies_T1
from soe.closure import eigen_closure_system
from soe.entity import Entity, RelationKind, equivalent, implies


# the flags that a copy p' of every state turns false: each copy, and each of
# its couples, is equivalent to its original; the copies add no cell, so the
# experiment relations and every outcome set stay as they were
DOUBLING_FALSIFIES = ("outcome_determined", "state_determined", "central_atomic", "state_atomic")

CENTRAL, STATES, EXPERIMENTS = RelationKind.central(), RelationKind.state_global(), RelationKind.experiment_global()

# flag -> whether a witness is a counterexample to the flag on an entity
REFUTES = {
    "outcome_determined": lambda entity, w: w[0] != w[1] and equivalent(entity, CENTRAL, *w),
    "state_determined": lambda entity, w: w[0] != w[1] and equivalent(entity, STATES, *w),
    "experiment_determined": lambda entity, w: w[0] != w[1] and equivalent(entity, EXPERIMENTS, *w),
    "central_atomic": lambda entity, w: w[0] != w[1] and implies(entity, CENTRAL, *w),
    "state_atomic": lambda entity, w: w[0] != w[1] and implies(entity, STATES, *w),
    "experiment_atomic": lambda entity, w: w[0] != w[1] and implies(entity, EXPERIMENTS, *w),
    "d_classical": lambda entity, w: len(entity.outcome_set(*w)) != 1,
    "distinguishable": lambda entity, w: bool(w[0] != w[1] and entity.experiment_outcomes(w[0]) & entity.experiment_outcomes(w[1])),
}


def _atomic_entity(n, n_outcomes, seed) -> Entity:
    """An n x n entity whose cells are distinct 2-subsets of the outcomes."""
    rng = random.Random(seed)
    pairs = rng.sample(list(combinations([f"x{i}" for i in range(n_outcomes)], 2)), n * n)
    states, experiments = [f"p{j}" for j in range(n)], [f"e{i}" for i in range(n)]
    return Entity(states, experiments, {(e, p): pairs.pop() for e in experiments for p in states})


def _renamed(entity, rng) -> tuple:
    """(the entity under a random bijective renaming of its states,
    experiments and outcomes, the inverse renaming of states and experiments).
    The names are such as q4, q4! and q4+: one name is often a prefix of
    another, so the `str` order of the couples differs from their tuple order."""

    def renaming(items, prefix):
        names = [f"{prefix}{k // 3}{('', '!', '+')[k % 3]}" for k in range(len(items))]
        return dict(zip(rng.sample(sorted(items), len(items)), names))

    S, E, X = renaming(entity.states, "q"), renaming(entity.experiments, "f"), renaming(entity.outcomes, "y")
    table = {(E[e], S[p]): {X[x] for x in cell} for (e, p), cell in entity.cells()}
    return Entity(S.values(), E.values(), table), {new: old for old, new in [*S.items(), *E.items()]}


def _doubled(entity) -> Entity:
    """The entity with a copy p' of every state p, which has p's cells."""
    table = dict(entity.cells())
    table.update({(e, f"{p}'"): cell for (e, p), cell in entity.cells()})
    return Entity(entity.states | {f"{p}'" for p in entity.states}, entity.experiments, table)


class TestMetamorphicRelations:
    """A renaming keeps every flag and maps each witness to a counterexample,
    and doubling the states falsifies exactly the flags it must."""

    @pytest.fixture(scope="class")
    def entities(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
            table = importlib.import_module("workloads").random_table(random.Random(5), 40, 40, 16, 1, 3)
        return {"random": Entity(table.states, table.experiments, table.cells), "atomic": _atomic_entity(40, 60, 7)}

    @pytest.mark.parametrize("name", ["random", "atomic"])
    def test_renaming_keeps_every_flag(self, entities, name):
        entity = entities[name]
        renamed, back = _renamed(entity, random.Random(11))
        assert sorted(renamed.couples()) != sorted(renamed.couples(), key=str)
        report = classify(renamed)
        assert report.flags() == classify(entity).flags()
        # each witness, renamed back, is a counterexample in the original
        undo = lambda item: tuple(map(undo, item)) if isinstance(item, tuple) else back[item]  # noqa: E731
        for flag, witness in report.witnesses.items():
            assert REFUTES[flag](entity, undo(witness)), (flag, witness)

    @pytest.mark.parametrize("name", ["random", "atomic"])
    def test_doubling_the_states_falsifies_exactly_four_flags(self, entities, name):
        entity = entities[name]
        before = classify(entity).flags()
        if name == "atomic":
            assert all(before[flag] for flag in DOUBLING_FALSIFIES)
        doubled = _doubled(entity)
        assert classify(doubled).flags() == {**before, **dict.fromkeys(DOUBLING_FALSIFIES, False)}
        # every state and couple has a twin, so no singleton is closed, and
        # the T1 witness is the least point by str
        for on, points in (("states", doubled.states), ("central", doubled.couples())):
            assert satisfies_T1(eigen_closure_system(doubled, on)) == (False, min(points, key=str))
