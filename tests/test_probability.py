import math
import random

import pytest

from soe.entity import Entity
from soe.errors import ContractError
from soe.mixture import Event, MixedExperiment, MixedState, mixed_outcome_set
from soe.probability import (
    ProbabilisticEntity,
    ProbabilityTable,
    d_classical_measure,
    event_probability,
    mixed_additivity_check,
    mixed_probability,
    validate_measure,
)
from soe.quantum import BallState, SphereExperiment, qmachine_probability

from conftest import random_d_classical_entity


def machine_slice(theta: float) -> tuple:
    """A two-state finite slice of the sphere machine: the axis eigenstate and
    a surface state at angle theta from the axis."""
    axis = SphereExperiment((0.0, 0.0, 1.0))
    tilted = BallState.from_angles(theta, 0.0)
    p1, p2 = qmachine_probability(tilted, axis)
    table = {("eu", "top"): {"o1"}, ("eu", "tilt"): {"o1", "o2"}}
    entity = Entity({"top", "tilt"}, {"eu"}, table)
    measure = ProbabilityTable(
        {("eu", "top", "o1"): 1.0, ("eu", "tilt", "o1"): p1, ("eu", "tilt", "o2"): p2}
    )
    return entity, measure


class TestValidateMeasure:
    def test_d_classical_measure_passes(self, dpair):
        table = d_classical_measure(dpair)
        diag = validate_measure(dpair, table)
        assert diag.passed, diag.failures

    def test_machine_at_right_angle(self):
        entity, measure = machine_slice(math.pi / 2)
        diag = validate_measure(entity, measure)
        assert diag.passed, diag.failures
        assert abs(measure("eu", "tilt", "o1") - 0.5) < 1e-12

    def test_short_row_fails(self):
        entity = Entity({"s"}, {"h"}, {("h", "s"): {"o1", "o2"}})
        bad = ProbabilityTable({("h", "s", "o1"): 0.5, ("h", "s", "o2"): 0.4})
        diag = validate_measure(entity, bad)
        assert not diag.checks["normalization.cell_sums_to_one"]

    def test_normalization_witnesses_name_each_failing_cell(self):
        # each witness is built when its cell fails, from that cell's sum
        entity = Entity(
            {"p", "q"},
            {"e", "f"},
            {("e", "p"): {"x", "y"}, ("e", "q"): {"x"}, ("f", "p"): {"z"}, ("f", "q"): {"z", "w"}},
        )
        bad = ProbabilityTable({("e", "p", "x"): 0.25, ("e", "q", "x"): 1, ("f", "p", "z"): 1,
                                ("f", "q", "z"): 0.3, ("f", "q", "w"): 0.3})
        assert validate_measure(entity, bad).failures == [
            "normalization.cell_sums_to_one: (e, p) sums to 0.25",
            "normalization.cell_sums_to_one: (f, q) sums to 0.6",
        ]

    def test_off_support_mass_fails(self):
        entity = Entity({"s"}, {"h"}, {("h", "s"): {"o1"}})
        bad = ProbabilityTable({("h", "s", "o1"): 1.0, ("h", "s", "ghost"): 0.25})
        diag = validate_measure(entity, bad)
        assert not diag.checks["support.inside_cell"]

    def test_zero_probability_possible_outcome_warns(self):
        entity = Entity({"s"}, {"h"}, {("h", "s"): {"o1", "o2"}})
        table = ProbabilityTable({("h", "s", "o1"): 1.0})
        diag = validate_measure(entity, table)
        assert diag.passed
        assert diag.details["zero_probability_possible_outcomes"] == ["(h, s, o2)"]

    def test_out_of_range_rejected_at_construction(self):
        with pytest.raises(ContractError):
            ProbabilityTable({("h", "s", "o1"): 1.5})


class TestEventProbability:
    def test_full_cell_is_one(self, dpair):
        table = d_classical_measure(dpair)
        for (e, p), cell in dpair.cells():
            assert event_probability(dpair, table, e, p, Event(cell)) == 1.0

    def test_disjoint_event_is_zero(self):
        entity, measure = machine_slice(math.pi / 3)
        assert event_probability(entity, measure, "eu", "top", Event({"o2"})) == 0.0

    def test_machine_third_angle(self):
        entity, measure = machine_slice(math.pi / 3)
        got = event_probability(entity, measure, "eu", "tilt", Event({"o1"}))
        assert abs(got - 0.75) < 1e-12  # cos^2(pi/6)

    def test_complement_of_certain_outcome(self, dpair):
        table = d_classical_measure(dpair)
        for (e, p), cell in dpair.cells():
            rest = dpair.outcomes - cell
            if rest:
                assert event_probability(dpair, table, e, p, Event(rest)) == 0.0

    def test_monotone_and_additive(self):
        rng = random.Random(61)
        entity, measure = machine_slice(1.0)
        cell = entity.outcome_set("eu", "tilt")
        for _ in range(10):
            A = frozenset(rng.sample(sorted(cell), rng.randint(0, len(cell))))
            B = frozenset(rng.sample(sorted(cell), rng.randint(0, len(cell))))
            pa = event_probability(entity, measure, "eu", "tilt", Event(A) if A else A)
            pab = event_probability(entity, measure, "eu", "tilt", Event(A | B) if A | B else A | B)
            assert pa <= pab + 1e-12
            if not A & B:
                pb = event_probability(entity, measure, "eu", "tilt", Event(B) if B else B)
                assert abs(pab - (pa + pb)) < 1e-12

    def test_a_bare_string_is_one_identifier(self):
        entity = Entity({"p1"}, {"e1"}, {("e1", "p1"): {"x1", "x2"}})
        table = ProbabilityTable({("e1", "p1", "x1"): 0.5, ("e1", "p1", "x2"): 0.5})
        assert event_probability(entity, table, "e1", "p1", "x1") == 0.5
        assert mixed_probability(entity, table, "e1", "p1", {"x1"}) == 0.5
        assert mixed_probability(entity, table, {"e1"}, "p1", "x2") == 0.5

    def test_unknown_bases_are_refused_and_the_empty_event_reads_zero(self):
        entity = Entity({"p1"}, {"e1"}, {("e1", "p1"): {"x1", "x2"}})
        table = ProbabilityTable({("e1", "p1", "x1"): 0.5, ("e1", "p1", "x2"): 0.5})
        unknown_event = r"mixed event base contains unknown identifiers: \['zz'\]"
        for event in ({"zz"}, {"x1", "zz"}):
            with pytest.raises(ContractError, match=unknown_event):
                event_probability(entity, table, "e1", "p1", event)
            with pytest.raises(ContractError, match=unknown_event):
                mixed_probability(entity, table, "e1", "p1", event)
        for experiments, states in ((set(), "p1"), ("e1", set()), ({"e1", "e9"}, "p1"), ("e1", {"p1", "p9"})):
            with pytest.raises(ContractError) as refused:
                mixed_outcome_set(entity, experiments, states)
            with pytest.raises(ContractError) as err:
                mixed_probability(entity, table, experiments, states, "x1")
            assert str(err.value) == str(refused.value)
        assert event_probability(entity, table, "e1", "p1", set()) == 0.0
        assert mixed_probability(entity, table, "e1", "p1", set()) == 0.0


class TestMixedAdditivity:
    def test_singleton_families_reduce_to_lookup(self, dpair):
        table = d_classical_measure(dpair)
        diag = mixed_additivity_check(
            dpair,
            table,
            [MixedExperiment({"h"})],
            [MixedState({"s"})],
            [Event({"up"})],
        )
        assert diag.passed
        assert diag.details["supremum_value"] == table("h", "s", "up")

    def test_d_classical_orthogonal_states_exact(self, dpair):
        table = d_classical_measure(dpair)
        # s and t are separated by experiment h (up vs down); singleton cells
        # admit no orthogonal event pairs, so the event family stays a singleton
        diag = mixed_additivity_check(
            dpair,
            table,
            [MixedExperiment({"h"})],
            [MixedState({"s"}), MixedState({"t"})],
            [Event({"up", "down"})],
        )
        assert diag.passed
        assert diag.details["residual"] == 0.0
        # the literal triple sum adds certain outcomes across the orthogonal
        # states without weights; both evaluation routes agree on that
        assert diag.details["supremum_value"] == 2.0

    def test_perturbed_table_reports_residual(self):
        entity = Entity(
            {"s"}, {"h", "k"}, {("h", "s"): {"o1"}, ("k", "s"): {"o2"}}
        )
        perturbed = ProbabilityTable(
            {("h", "s", "o1"): 1.0, ("k", "s", "o2"): 1.0, ("h", "s", "o2"): 0.125}
        )
        diag = mixed_additivity_check(
            entity,
            perturbed,
            [MixedExperiment({"h"})],
            [MixedState({"s"})],
            [Event({"o1", "o2"})],
        )
        assert not diag.passed
        assert abs(diag.details["residual"] - 0.125) < 1e-12

    def test_non_orthogonal_family_rejected(self, worked):
        # f and g share outcomes in every state, so they are not orthogonal
        table = ProbabilityTable({})
        with pytest.raises(ContractError):
            mixed_additivity_check(
                worked,
                table,
                [MixedExperiment({"f"}), MixedExperiment({"g"})],
                [MixedState({"p"})],
                [Event({"x1"})],
            )

    def test_mixed_probability_sums_atoms(self, dpair):
        table = d_classical_measure(dpair)
        value = mixed_probability(dpair, table, {"h", "k"}, {"s", "t"}, dpair.outcomes)
        assert value == 4.0  # one certain outcome per cell


class TestDClassicalMeasure:
    def test_zero_one_entries(self, dpair):
        table = d_classical_measure(dpair)
        assert set(table.entries.values()) == {1.0}
        for (e, p), cell in dpair.cells():
            assert table(e, p, next(iter(cell))) == 1.0

    def test_random_d_classical(self):
        rng = random.Random(62)
        for _ in range(20):
            entity = random_d_classical_entity(rng)
            diag = validate_measure(entity, d_classical_measure(entity))
            assert diag.passed, diag.failures

    def test_refused_on_non_classical(self, worked):
        with pytest.raises(ContractError):
            d_classical_measure(worked)


class TestProbabilisticEntity:
    def test_needs_a_measure(self, dpair):
        with pytest.raises(ContractError):
            ProbabilisticEntity(dpair, ())

    def test_holds_measures(self, dpair):
        table = d_classical_measure(dpair)
        pe = ProbabilisticEntity(dpair, (table,))
        assert pe.measures[0] is table
