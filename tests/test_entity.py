import random
import sys

import pytest

from soe.entity import (
    Entity,
    RelationKind,
    _require_item,
    _validate_kind,
    check_identifier,
    eigen_outcome,
    equivalent,
    implies,
    orthogonal,
    outcome_set,
    relation_report,
)
from soe.errors import ContractError, EntityValidationError, UnknownIdentifierError

from conftest import random_entity

CENTRAL = RelationKind.central()
STATE = RelationKind.state_global()
EXPERIMENT = RelationKind.experiment_global()
OUTCOME = RelationKind.outcome_global()


class TestConstruction:
    def test_outcome_sets(self, worked):
        assert outcome_set(worked, "e", "p") == {"x1", "x2"}
        assert outcome_set(worked, "g", "q") == {"x2"}

    def test_singleton_entity(self):
        single = Entity({"s"}, {"h"}, {("h", "s"): {"o"}})
        assert outcome_set(single, "h", "s") == {"o"}

    def test_unknown_identifier(self, worked):
        with pytest.raises(UnknownIdentifierError, match="zz"):
            outcome_set(worked, "e", "zz")
        with pytest.raises(UnknownIdentifierError, match="h"):
            outcome_set(worked, "h", "p")

    def test_stray_cells_of_mixed_types_are_a_typed_refusal(self):
        table = {("e", "p"): {"x"}, "junk": {"x"}, ("f", 1): {"x"}}
        with pytest.raises(EntityValidationError) as refused:
            Entity({"p"}, {"e"}, table)
        assert str(refused.value) == "table has cells outside E x Sigma: ['junk', ('f', 1)]"
        with pytest.raises(EntityValidationError, match=r"outside E x Sigma: \[\('f', 'p'\), \('g', 'p'\)\]"):
            Entity({"p"}, {"e"}, {("e", "p"): {"x"}, ("g", "p"): {"x"}, ("f", "p"): {"x"}})

    def test_missing_cell_rejected(self):
        with pytest.raises(EntityValidationError, match=r"\(h, t\)"):
            Entity({"s", "t"}, {"h"}, {("h", "s"): {"o"}})

    def test_empty_cell_rejected(self):
        with pytest.raises(EntityValidationError, match="empty"):
            Entity({"s"}, {"h"}, {("h", "s"): set()})

    @pytest.mark.parametrize("cell, shown", [(5, "5"), ([[1]], "[[1]]")])
    def test_a_cell_that_is_no_set_of_outcomes_is_a_typed_refusal(self, cell, shown):
        # not iterable, or holding an unhashable outcome
        with pytest.raises(EntityValidationError) as refused:
            Entity({"s"}, {"e"}, {("e", "s"): cell})
        assert str(refused.value) == f"outcome set for cell (e, s) is not a set of outcomes: {shown}"

    def test_malformed_cells_are_refused_in_couple_order_after_each_cells_own_refusals(self):
        # (e, s) is checked first, and its own refusal wins over the malformed (e, t)
        cells = {("e", "t"): 5, ("f", "s"): [[1]]}
        for first, message in (({}, "missing outcome set for cell (e, s)"),
                               ({("e", "s"): "x"}, "outcome set for cell (e, s) is the string 'x', not a set"),
                               ({("e", "s"): []}, "outcome set for cell (e, s) is empty"),
                               ({("e", "s"): {"x"}}, "outcome set for cell (e, t) is not a set of outcomes: 5")):
            with pytest.raises(EntityValidationError) as refused:
                Entity({"s", "t"}, {"e", "f"}, {**cells, **first})
            assert str(refused.value) == message

    @pytest.mark.parametrize(
        "args, message",
        [
            (("pq", {"e"}, {("e", "p"): {"x"}, ("e", "q"): {"x"}}), "states must be a collection of identifiers, not the string 'pq'"),
            (({"p"}, "e", {("e", "p"): {"x"}}), "experiments must be a collection"),
            (({"p"}, {"e"}, {("e", "p"): {"x1"}}, "x1"), "outcomes must be a collection"),
            (({"p"}, {"e"}, {("e", "p"): "x1"}), r"outcome set for cell \(e, p\) is the string 'x1', not a set"),
        ],
    )
    def test_a_bare_string_is_not_split_into_characters(self, args, message):
        with pytest.raises(EntityValidationError, match=message):
            Entity(*args)

    @pytest.mark.parametrize("token", ["a b", "a\x0cb", "a\u2028b", "x,y", "x]", 7, ""])
    def test_identifier_rule(self, token):
        # every whitespace character is refused, since the text format splits
        # lines and words on all of them
        with pytest.raises(EntityValidationError, match="outcome identifier"):
            Entity({"s"}, {"h"}, {("h", "s"): {"o", token}})

    def test_identifier_rule_over_every_code_point(self):
        """A character is refused, alone or inside a token, exactly when
        str.isspace accepts it or it is one of , = # [ ]."""
        refused = set()
        for c in range(sys.maxunicode + 1):
            try:
                check_identifier("state", f"a{chr(c)}b")
            except EntityValidationError:
                refused.add(c)
        assert refused == {c for c in range(sys.maxunicode + 1) if chr(c).isspace() or chr(c) in ",=#[]"}

    def test_declared_outcomes_must_match_union(self, worked):
        table = {("h", "s"): {"o"}}
        with pytest.raises(EntityValidationError, match="declared"):
            Entity({"s"}, {"h"}, table, outcomes={"o", "ghost"})
        ok = Entity({"s"}, {"h"}, table, outcomes={"o"})
        assert ok.outcomes == {"o"}

    def test_union_structure(self, worked):
        assert worked.outcomes == {"x1", "x2", "x3", "y1", "y2"}
        assert worked.experiment_outcomes("e") == {"x1", "x2", "x3"}
        assert worked.experiment_outcomes("g") == {"x1", "x2", "y1"}
        assert worked.state_outcomes("p") == {"x1", "x2", "y1", "y2"}
        assert worked.state_outcomes("q") == {"x1", "x2", "x3", "y2"}


class TestImplication:
    def test_central_examples(self, worked):
        assert implies(worked, CENTRAL, ("g", "q"), ("e", "p"))
        assert implies(worked, CENTRAL, ("e", "p"), ("g", "r"))
        assert not implies(worked, CENTRAL, ("e", "p"), ("f", "q"))

    def test_state_examples(self, worked):
        assert not implies(worked, STATE, "p", "q")
        assert implies(worked, STATE, "p", "p")
        for a in worked.states:
            for b in worked.states:
                if a != b:
                    assert not implies(worked, STATE, a, b)

    def test_scoped_state_implication(self, worked):
        # O(g,q) = {x2} is inside O(g,r) = {x1,x2,y1}
        assert implies(worked, RelationKind.state_for("g"), "q", "r")
        assert not implies(worked, RelationKind.state_for("e"), "q", "r")

    def test_experiment_examples(self, worked):
        for a in worked.experiments:
            for b in worked.experiments:
                assert implies(worked, EXPERIMENT, a, b) == (a == b)

    def test_kind_mismatch(self, worked):
        with pytest.raises(ContractError):
            implies(worked, CENTRAL, "p", "q")
        with pytest.raises(ContractError):
            implies(worked, RelationKind("nonsense"), "p", "q")
        with pytest.raises(ContractError):
            implies(worked, RelationKind("state", state="p"), "p", "q")


def _reference_refusal(entity, kind, a, b):
    """The refusal of the checks `relation_views` and `_require_item` run, in
    their order: the kind, then a, then b."""
    try:
        _validate_kind(entity, kind)
        _require_item(entity, kind, a)
        _require_item(entity, kind, b)
    except Exception as err:  # noqa: BLE001 - the type is what is compared
        return type(err), str(err)
    return None


BAD_QUERIES = [
    (STATE, "zz", "p"),
    (STATE, "p", "zz"),
    (RelationKind.state_for("e"), "p", "zz"),
    (RelationKind.state_for("zz"), "p", "q"),
    (EXPERIMENT, "zz", "e"),
    (RelationKind.experiment_for("p"), "e", "zz"),
    (RelationKind.experiment_for("zz"), "e", "f"),
    (OUTCOME, "x1", "zz"),
    (RelationKind.outcome_for("e", "p"), "zz", "x1"),
    (CENTRAL, ("e", "zz"), ("e", "p")),
    (CENTRAL, ("e", "p"), ("zz", "p")),
    (CENTRAL, ("e",), ("e", "p")),
    (CENTRAL, ("e", "p"), ("e", "p", "q")),
    (CENTRAL, ["e", "p"], ("e", "p")),
    (CENTRAL, "e", ("e", "p")),
    (CENTRAL, "p", "q"),
    (RelationKind("central", experiment="zz"), ("e", "p"), ("e", "q")),
    (RelationKind("state", state="p"), "p", "q"),
    (RelationKind("experiment", experiment="e"), "e", "f"),
    (RelationKind("outcome", experiment="e"), "x1", "x2"),
    (RelationKind("nonsense"), "p", "q"),
]


class TestRefusals:
    @pytest.mark.parametrize("kind, a, b", BAD_QUERIES)
    def test_each_query_refuses_as_the_engine_checks_do(self, worked, kind, a, b):
        expected = _reference_refusal(worked, kind, a, b)
        assert expected is not None
        for relation in (implies, orthogonal, equivalent):
            with pytest.raises(Exception) as refused:
                relation(worked, kind, a, b)
            assert (type(refused.value), str(refused.value)) == expected

    def test_scoped_central_kinds_still_answer(self, worked):
        # a central kind ignores a scope that names known items, as the engine does
        kind = RelationKind("central", experiment="e", state="p")
        assert _reference_refusal(worked, kind, ("g", "q"), ("e", "p")) is None
        assert implies(worked, kind, ("g", "q"), ("e", "p")) == implies(worked, CENTRAL, ("g", "q"), ("e", "p"))


class TestOrthogonality:
    def test_state_examples(self, worked):
        assert orthogonal(worked, STATE, "p", "q")  # separated by g
        assert orthogonal(worked, RelationKind.state_for("g"), "p", "q")
        assert not orthogonal(worked, RelationKind.state_for("e"), "p", "q")
        assert not orthogonal(worked, STATE, "p", "r")
        assert not orthogonal(worked, STATE, "q", "r")
        assert not orthogonal(worked, STATE, "p", "p")

    def test_experiment_examples(self, worked):
        assert orthogonal(worked, RelationKind.experiment_for("p"), "e", "f")
        assert orthogonal(worked, RelationKind.experiment_for("q"), "e", "f")
        assert orthogonal(worked, RelationKind.experiment_for("q"), "e", "g")
        assert orthogonal(worked, EXPERIMENT, "e", "f")
        assert not orthogonal(worked, EXPERIMENT, "f", "g")

    def test_outcome_examples(self, worked):
        assert orthogonal(worked, RelationKind.outcome_for("e", "p"), "x1", "x2")
        assert orthogonal(worked, OUTCOME, "x1", "x2")
        assert not orthogonal(worked, OUTCOME, "x1", "x1")
        # x1 and y2 never share a cell
        assert not orthogonal(worked, OUTCOME, "x1", "y2")


class TestEquivalence:
    def test_reflexive(self, worked):
        assert equivalent(worked, STATE, "p", "p")

    def test_worked_states_inequivalent(self, worked):
        assert not equivalent(worked, STATE, "p", "q")

    def test_clone_states_equivalent(self):
        table = {("h", "s"): {"o1"}, ("h", "t"): {"o1"}, ("k", "s"): {"o2"}, ("k", "t"): {"o2"}}
        twin = Entity({"s", "t"}, {"h", "k"}, table)
        assert equivalent(twin, STATE, "s", "t")


class TestEigenOutcome:
    def test_examples(self, worked):
        assert eigen_outcome(worked, "g", "q") == "x2"
        assert eigen_outcome(worked, "e", "p") is None

    def test_d_classical_always_present(self, dpair):
        for e in dpair.experiments:
            for p in dpair.states:
                assert eigen_outcome(dpair, e, p) is not None

    def test_matches_cell_size(self, worked):
        for (e, p), cell in worked.cells():
            assert (eigen_outcome(worked, e, p) is not None) == (len(cell) == 1)


# the 28 relations tabulated for the worked entity (6 implications, 11
# orthogonal pairs in both orders), frozen from hand evaluation of the table
WORKED_CENTRAL_IMPLICATIONS = {
    (("e", "p"), ("g", "r")),
    (("f", "p"), ("f", "r")),
    (("g", "q"), ("e", "p")),
    (("g", "q"), ("e", "r")),
    (("g", "q"), ("f", "q")),
    (("g", "q"), ("g", "r")),
    # present by direct evaluation although easy to miss by hand:
    (("g", "p"), ("g", "r")),
}

WORKED_CENTRAL_ORTHOGONAL = {
    (("e", "p"), ("f", "p")),
    (("e", "p"), ("f", "r")),
    (("e", "q"), ("f", "p")),
    (("e", "q"), ("f", "q")),
    (("e", "q"), ("g", "q")),
    (("e", "r"), ("f", "p")),
    (("e", "r"), ("g", "p")),
    (("f", "p"), ("g", "q")),
    (("f", "q"), ("g", "p")),
    (("f", "r"), ("g", "q")),
    (("g", "p"), ("g", "q")),
}


class TestRelationReport:
    def test_worked_central_section(self, worked):
        report = relation_report(worked)
        central = report.section("central")
        nontrivial = {(a, b) for a, b in central.implications if a != b}
        assert nontrivial == WORKED_CENTRAL_IMPLICATIONS
        both_ways = set(WORKED_CENTRAL_ORTHOGONAL) | {(b, a) for a, b in WORKED_CENTRAL_ORTHOGONAL}
        assert set(central.orthogonalities) == both_ways

    def test_singleton_entity(self):
        single = Entity({"s"}, {"h"}, {("h", "s"): {"o"}})
        report = relation_report(single)
        for section in report.sections:
            assert all(a == b for a, b in section.implications)
            assert section.orthogonalities == ()

    def test_matches_pairwise_evaluation(self):
        rng = random.Random(7)
        for _ in range(10):
            entity = random_entity(rng, 3, 3, 4)
            report = relation_report(entity)
            central = report.section("central")
            couples = entity.couples()
            expected_imp = [
                (a, b)
                for a in couples
                for b in couples
                if entity.outcome_set(*a) <= entity.outcome_set(*b)
            ]
            expected_orth = [
                (a, b)
                for a in couples
                for b in couples
                if a != b and not (entity.outcome_set(*a) & entity.outcome_set(*b))
            ]
            assert list(central.implications) == expected_imp
            assert list(central.orthogonalities) == expected_orth

    def test_deterministic(self, worked):
        assert relation_report(worked) == relation_report(worked)


class TestRelationAxioms:
    def test_axioms_on_random_entities(self):
        rng = random.Random(11)
        for _ in range(25):
            entity = random_entity(rng, 3, 3, 4)
            couples = entity.couples()
            imp = {
                (a, b): entity.outcome_set(*a) <= entity.outcome_set(*b)
                for a in couples
                for b in couples
            }
            orth = {
                (a, b): not (entity.outcome_set(*a) & entity.outcome_set(*b))
                for a in couples
                for b in couples
            }
            for a in couples:
                assert implies(entity, CENTRAL, a, a)
                assert not orthogonal(entity, CENTRAL, a, a)
            for a in couples:
                for b in couples:
                    assert implies(entity, CENTRAL, a, b) == imp[(a, b)]
                    if orth[(a, b)] and a != b:
                        assert orthogonal(entity, CENTRAL, b, a)
                    if imp[(a, b)]:
                        assert not orthogonal(entity, CENTRAL, a, b)
                    for c in couples:
                        if imp[(a, b)] and imp[(b, c)]:
                            assert imp[(a, c)]

    def test_orthogonality_descends_along_implication(self):
        # a | b and c < a and d < b force c | d; exhaustive on small entities
        rng = random.Random(13)
        for _ in range(10):
            entity = random_entity(rng, 4, 4, 4)
            couples = entity.couples()
            cells = {c: entity.outcome_set(*c) for c in couples}
            for a in couples:
                for b in couples:
                    if cells[a] & cells[b]:
                        continue
                    for c in couples:
                        if not cells[c] <= cells[a]:
                            continue
                        for d in couples:
                            if cells[d] <= cells[b]:
                                assert orthogonal(entity, CENTRAL, c, d)
