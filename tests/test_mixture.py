import random

import pytest

from soe.entity import Entity, RelationKind, implies, orthogonal
from soe.errors import CapacityError, ContractError, EntityValidationError
from soe.mixture import (
    Event,
    MixedExperiment,
    MixedState,
    full_mixed_entity,
    is_supremum,
    mixed_implies,
    mixed_orthogonal,
    mixed_outcome_set,
    mixture_id,
)

from conftest import random_entity

STATE = RelationKind.state_global()
EXPERIMENT = RelationKind.experiment_global()
OUTCOME = RelationKind.outcome_global()


class TestMixedOutcomeSet:
    def test_union_of_rows(self, worked):
        assert mixed_outcome_set(worked, {"e", "f"}, {"p"}) == {"x1", "x2", "y1", "y2"}

    def test_singleton_reduces(self, worked):
        assert mixed_outcome_set(worked, {"e"}, {"p"}) == worked.outcome_set("e", "p")

    def test_whole_table(self, worked):
        assert mixed_outcome_set(worked, worked.experiments, worked.states) == worked.outcomes

    def test_empty_subset_rejected(self, worked):
        with pytest.raises(ContractError):
            mixed_outcome_set(worked, set(), {"p"})
        with pytest.raises(ContractError):
            mixed_outcome_set(worked, {"e"}, set())

    def test_unknown_member_rejected(self, worked):
        with pytest.raises(ContractError):
            mixed_outcome_set(worked, {"e", "zz"}, {"p"})

    def test_a_mixture_of_the_other_kind_is_refused(self, worked):
        with pytest.raises(ContractError, match=r"mixed experiment is given as MixedExperiment .*got MixedState"):
            mixed_outcome_set(worked, MixedState({"p"}), MixedExperiment({"e"}))
        with pytest.raises(ContractError, match=r"mixed state is given as MixedState .*got MixedExperiment"):
            mixed_outcome_set(worked, {"e"}, MixedExperiment({"e"}))
        with pytest.raises(ContractError, match=r"mixed state is given as MixedState .*got Event"):
            mixed_outcome_set(worked, {"e"}, Event({"x1"}))
        with pytest.raises(ContractError, match=r"mixed event is given as Event .*got MixedState"):
            mixed_implies(worked, OUTCOME, MixedState({"p"}), Event({"x1"}))

    def test_a_non_iterable_is_refused(self, worked):
        with pytest.raises(ContractError, match=r"mixed state is given as MixedState or an iterable of identifiers, got 3"):
            mixed_outcome_set(worked, {"e"}, 3)


class TestMixedRelations:
    def test_event_orthogonality(self, worked):
        assert mixed_orthogonal(worked, RelationKind.outcome_for("e", "p"), Event({"x1"}), Event({"x2"}))
        assert not mixed_orthogonal(
            worked, RelationKind.outcome_for("e", "p"), Event({"x1"}), Event({"x1", "x2"})
        )
        # both parts must sit inside the same cell
        assert not mixed_orthogonal(
            worked, RelationKind.outcome_for("e", "p"), Event({"x1"}), Event({"y1"})
        )
        assert mixed_orthogonal(worked, OUTCOME, Event({"x1"}), Event({"x2"}))

    def test_event_preorder_is_inclusion(self, worked):
        assert mixed_implies(worked, OUTCOME, Event({"x1"}), Event({"x1", "x2"}))
        assert not mixed_implies(worked, OUTCOME, Event({"x1", "x2"}), Event({"x1"}))

    def test_singleton_mixture_reduction(self, worked):
        # relations on singleton mixtures coincide with the base relations
        for a in sorted(worked.states):
            for b in sorted(worked.states):
                assert mixed_implies(worked, STATE, MixedState({a}), MixedState({b})) == implies(
                    worked, STATE, a, b
                )
                assert mixed_orthogonal(
                    worked, STATE, MixedState({a}), MixedState({b})
                ) == orthogonal(worked, STATE, a, b)
        for a in sorted(worked.experiments):
            for b in sorted(worked.experiments):
                assert mixed_implies(
                    worked, EXPERIMENT, MixedExperiment({a}), MixedExperiment({b})
                ) == implies(worked, EXPERIMENT, a, b)
                assert mixed_orthogonal(
                    worked, EXPERIMENT, MixedExperiment({a}), MixedExperiment({b})
                ) == orthogonal(worked, EXPERIMENT, a, b)
        for y in sorted(worked.outcomes):
            for z in sorted(worked.outcomes):
                assert mixed_orthogonal(
                    worked, OUTCOME, Event({y}), Event({z})
                ) == orthogonal(worked, OUTCOME, y, z)

    def test_worked_examples(self, worked):
        assert not mixed_orthogonal(worked, STATE, MixedState({"q"}), MixedState({"r"}))
        assert mixed_implies(worked, STATE, MixedState({"p"}), MixedState({"p", "q"}))

    def test_subset_gives_implication(self, worked):
        # P inside Q forces p(P) < p(Q); same for experiments
        subsets = [{"p"}, {"q"}, {"p", "q"}, {"p", "q", "r"}]
        for P in subsets:
            for Q in subsets:
                if P <= Q:
                    assert mixed_implies(worked, STATE, MixedState(P), MixedState(Q))

    def test_couple_mixture_pointwise_exhaustive(self, worked):
        # (e(E),p(P)) < (f(F),q(Q)) iff every base couple of the left side is;
        # checked over every pair of mixed couples of the worked entity
        from itertools import chain, combinations

        def nonempty_subsets(items):
            items = sorted(items)
            return [
                frozenset(c)
                for c in chain.from_iterable(
                    combinations(items, r) for r in range(1, len(items) + 1)
                )
            ]

        central = RelationKind.central()
        exp_subsets = nonempty_subsets(worked.experiments)
        state_subsets = nonempty_subsets(worked.states)
        mixed_couples = [(E, P) for E in exp_subsets for P in state_subsets]
        for Ea, Pa in mixed_couples:
            for Eb, Pb in mixed_couples:
                got = mixed_implies(worked, central, (Ea, Pa), (Eb, Pb))
                expected = all(
                    mixed_implies(worked, central, (frozenset({e}), frozenset({p})), (Eb, Pb))
                    for e in Ea
                    for p in Pa
                )
                assert got == expected
                got_orth = mixed_orthogonal(worked, central, (Ea, Pa), (Eb, Pb))
                expected_orth = all(
                    mixed_orthogonal(
                        worked,
                        central,
                        (frozenset({e}), frozenset({p})),
                        (frozenset({f}), frozenset({q})),
                    )
                    for e in Ea
                    for p in Pa
                    for f in Eb
                    for q in Pb
                )
                assert got_orth == expected_orth


class TestSupremum:
    def test_mixed_experiment_is_supremum_of_parts(self, worked):
        cand = MixedExperiment({"e", "f"})
        family = [MixedExperiment({"e"}), MixedExperiment({"f"})]
        assert is_supremum(worked, cand, family)

    def test_singleton_family(self, worked):
        assert is_supremum(worked, MixedState({"p"}), [MixedState({"p"})])

    def test_not_a_supremum(self, worked):
        assert not is_supremum(worked, MixedState({"p"}), [MixedState({"p"}), MixedState({"q"})])

    def test_event_supremum_is_union(self, worked):
        assert is_supremum(worked, Event({"x1", "x2"}), [Event({"x1"}), Event({"x2"})])
        assert not is_supremum(worked, Event({"x1", "x2", "x3"}), [Event({"x1"}), Event({"x2"})])

    def test_union_mixture_is_supremum_generally(self, worked):
        rng = random.Random(5)
        states = sorted(worked.states)
        for _ in range(10):
            parts = [
                frozenset(rng.sample(states, rng.randint(1, len(states))))
                for _ in range(rng.randint(1, 3))
            ]
            union = frozenset().union(*parts)
            assert is_supremum(worked, MixedState(union), [MixedState(P) for P in parts])

    def test_empty_family_rejected(self, worked):
        with pytest.raises(ContractError):
            is_supremum(worked, MixedState({"p"}), [])


class TestFullMixedEntity:
    def test_worked_sizes(self, worked):
        full = full_mixed_entity(worked)
        assert len(full.states) == 7
        assert len(full.experiments) == 7

    def test_cells_are_unions(self, worked):
        full = full_mixed_entity(worked)
        assert full.outcome_set(mixture_id({"e", "f"}), mixture_id({"p"})) == mixed_outcome_set(
            worked, {"e", "f"}, {"p"}
        )
        assert full.outcome_set(
            mixture_id(worked.experiments), mixture_id(worked.states)
        ) == worked.outcomes

    def test_singleton_entity_isomorphic_to_itself(self):
        single = Entity({"s"}, {"h"}, {("h", "s"): {"o"}})
        full = full_mixed_entity(single)
        assert len(full.states) == 1 and len(full.experiments) == 1
        assert full.outcome_set("h", "s") == {"o"}

    def test_double_mixture_collapses_to_unions(self, worked):
        # mixing mixtures adds nothing: full(full(S)) collapses onto full(S)
        full1 = full_mixed_entity(worked)
        full2 = full_mixed_entity(full1)
        assert full2.states == full1.states
        assert full2.experiments == full1.experiments
        for (couple, cell) in full1.cells():
            assert full2.outcome_set(*couple) == cell

    def test_union_mixture_supremum_in_full_entity(self, worked):
        # inside the full mixed entity the union mixture is a supremum of its parts
        full = full_mixed_entity(worked)
        parts = [frozenset({"p"}), frozenset({"q", "r"})]
        sup = MixedState({mixture_id(frozenset().union(*parts))})
        assert is_supremum(full, sup, [MixedState({mixture_id(P)}) for P in parts])

    def test_budget(self, worked):
        with pytest.raises(CapacityError):
            full_mixed_entity(worked, budget=4)

    def test_minted_identifier_collision_is_a_validation_error(self):
        # the mixture of a and b is minted 'a+b', the name of a state with another row
        entity = Entity({"a", "b", "a+b"}, {"h"}, {("h", "a"): {"x"}, ("h", "b"): {"y"}, ("h", "a+b"): {"z"}})
        with pytest.raises(EntityValidationError, match=r"collision with conflicting rows at \(h, a\+b\)"):
            full_mixed_entity(entity)

    def test_relations_roundtrip_against_random(self):
        rng = random.Random(9)
        for _ in range(5):
            entity = random_entity(rng, 3, 3, 4)
            full = full_mixed_entity(entity)
            # full-entity base relations equal the mixed relations of the base entity
            some_states = [frozenset(rng.sample(sorted(entity.states), rng.randint(1, len(entity.states)))) for _ in range(3)]
            for P in some_states:
                for Q in some_states:
                    lhs = implies(full, RelationKind.state_global(), mixture_id(P), mixture_id(Q))
                    rhs = mixed_implies(entity, RelationKind.state_global(), MixedState(P), MixedState(Q))
                    # the full entity quantifies over mixed experiments, the base
                    # relation over base experiments; they agree
                    assert lhs == rhs
