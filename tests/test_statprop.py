import random

import pytest

from soe.closure import (
    ClosureSystem,
    _holder_index,
    _member_sets,
    _Order,
    eig_states,
    eigen_closure_system,
    intersection_closure,
)
from soe.entity import Entity, RelationKind, implies
from soe.errors import CapacityError, ContractError, EntityValidationError, UnknownIdentifierError
from soe.examples import deterministic_pair, three_by_three
from soe.mixture import full_mixed_entity, mixture_id
from soe.statprop import (
    TOTAL_ROW_BUDGET,
    StatePropertySystem,
    _meeting_mask,
    _total_row,
    cartan,
    closure_to_sps,
    global_testable_sps,
    is_cartan_family,
    is_distinguishable,
    property_implies,
    sps_to_closure,
    testable_sps,
    validate_sps,
)

from conftest import random_distinguishable_entity, random_entity
from oracles import brute_intersection_closure, powerset


def fs(*members):
    return frozenset(frozenset(m) for m in members)


class TestTestableSps:
    def test_worked_e_lattice_is_eigen_family(self, worked):
        sps = testable_sps(worked, "e")
        assert sps_to_closure(sps) == eigen_closure_system(worked, "states", "e")

    def test_worked_g_lattice(self, worked):
        sps = testable_sps(worked, "g")
        assert sps.properties == fs((), {"p"}, {"q"}, {"p", "q", "r"})

    def test_single_outcome_experiment_two_element_lattice(self):
        entity = Entity({"s", "t"}, {"h"}, {("h", "s"): {"o"}, ("h", "t"): {"o"}})
        sps = testable_sps(entity, "h")
        assert sps.properties == fs((), {"s", "t"})
        assert sps.top == {"s", "t"}
        assert sps.bottom == frozenset()

    def test_property_for_outcome_set(self, worked):
        sps = testable_sps(worked, "e")
        assert sps.testable_property({"x1", "x2"}) == {"p"}
        assert cartan(sps, sps.testable_property({"x1", "x2"})) == {"p"}
        assert sps.testable_property(set()) == frozenset()
        with pytest.raises(ContractError):
            sps.testable_property({"y1"})

    def test_testable_property_matches_eig(self, worked):
        rng = random.Random(48)
        for entity in [worked] + [random_entity(rng, 4, 3, 5) for _ in range(5)]:
            for e in sorted(entity.experiments):
                sps = testable_sps(entity, e)
                full = entity.experiment_outcomes(e)
                for A in powerset(full):
                    assert sps.testable_property(A) == eig_states(entity, e, A)
                for stray in sorted(entity.outcomes - full):
                    A = {stray} | set(sorted(full)[:1])
                    with pytest.raises(ContractError):
                        eig_states(entity, e, A)
                    with pytest.raises(ContractError) as err:
                        sps.testable_property(A)
                    assert str(err.value) == f"{[stray]} are not outcomes of this experiment"

    def test_witness_labels_regenerate_property(self, worked):
        for e in sorted(worked.experiments):
            sps = testable_sps(worked, e)
            for prop in sps.properties:
                label = sps.witness(prop)
                assert eig_states(worked, e, label) == prop

    def test_state_order_equals_scoped_implication(self, worked):
        for e in sorted(worked.experiments):
            sps = testable_sps(worked, e)
            kind = RelationKind.state_for(e)
            for p in sorted(worked.states):
                for q in sorted(worked.states):
                    assert sps.state_leq(p, q) == implies(worked, kind, p, q)

    def test_unknown_experiment_is_an_unknown_identifier(self, worked):
        with pytest.raises(UnknownIdentifierError):
            testable_sps(worked, "nope")

    def test_validates(self, worked):
        for e in sorted(worked.experiments):
            diag = validate_sps(testable_sps(worked, e))
            assert diag.passed, diag.failures


class TestCartan:
    def test_top_and_bottom(self, worked):
        sps = testable_sps(worked, "e")
        assert cartan(sps, sps.top) == worked.states
        assert cartan(sps, sps.bottom) == set()

    def test_unknown_property(self, worked):
        sps = testable_sps(worked, "e")
        with pytest.raises(UnknownIdentifierError):
            cartan(sps, frozenset({"p", "zz"}))

    def test_images_match_the_scan_definition(self):
        def scanned(sps, a):
            return frozenset(p for p in sps.states if a in sps.actual[p])

        rng = random.Random(44)
        systems = [
            StatePropertySystem({"s", "t", "u"}, {"I", "a", 0}, {"s": {"I", "a"}, "t": {"I"}, "u": {"I", 0}}),
            StatePropertySystem({"s"}, {("pair", 1), None}, {"s": [("pair", 1)]}),
        ]
        for _ in range(10):
            entity = random_entity(rng, 4, 3, 5)
            for scope in (None, sorted(entity.experiments)[0]):
                systems.append(closure_to_sps(entity.states, eigen_closure_system(entity, "states", scope)))
        for sps in systems:
            for a in sps.properties:
                assert cartan(sps, a) == scanned(sps, a)
            with pytest.raises(UnknownIdentifierError):
                cartan(sps, "not a property")

    def test_meet_is_intersection_of_images(self):
        rng = random.Random(41)
        for _ in range(10):
            entity = random_entity(rng, 4, 3, 5)
            e = sorted(entity.experiments)[0]
            sps = testable_sps(entity, e)
            props = sorted(sps.properties, key=lambda m: (len(m), tuple(sorted(m))))
            for a in props:
                for b in props:
                    assert cartan(sps, sps.meet([a, b])) == cartan(sps, a) & cartan(sps, b)

    def test_join_is_closure_of_union(self):
        rng = random.Random(42)
        for _ in range(10):
            entity = random_entity(rng, 4, 3, 5)
            e = sorted(entity.experiments)[0]
            sps = testable_sps(entity, e)
            system = sps_to_closure(sps)
            props = sorted(sps.properties, key=lambda m: (len(m), tuple(sorted(m))))
            for a in props:
                for b in props:
                    assert sps.join([a, b]) == system.closure_of(a | b)


class TestPropertyImplies:
    def test_top_bottom(self, worked):
        sps = testable_sps(worked, "e")
        a = sps.testable_property({"x1", "x2"})
        assert property_implies(sps, a, sps.top)
        assert property_implies(sps, sps.bottom, a)

    def test_worked_incomparable(self, worked):
        sps = testable_sps(worked, "e")
        a = sps.testable_property({"x1", "x2"})
        b = sps.testable_property({"x1", "x3"})
        assert not property_implies(sps, a, b)
        assert not property_implies(sps, b, a)

    def test_matches_ordering_set_definition(self, worked):
        sps = testable_sps(worked, "f")
        props = sorted(sps.properties, key=lambda m: (len(m), tuple(sorted(m))))
        for a in props:
            for b in props:
                via_states = all(
                    (b in sps.actual[r]) for r in sps.states if a in sps.actual[r]
                )
                assert property_implies(sps, a, b) == via_states


class TestClosureCorrespondence:
    def test_worked_round_trip(self, worked):
        system = eigen_closure_system(worked, "states", "e")
        sps = closure_to_sps(worked.states, system)
        assert sps.actual["p"] == fs({"p"}, {"p", "q", "r"})
        assert sps_to_closure(sps) == system

    def test_trivial_system(self):
        ground = frozenset({"a", "b"})
        system = ClosureSystem(ground, fs((), {"a", "b"}))
        sps = closure_to_sps(ground, system)
        assert len(sps.properties) == 2
        assert validate_sps(sps).passed

    def test_random_round_trip(self):
        rng = random.Random(43)
        for _ in range(15):
            entity = random_entity(rng, 4, 3, 5)
            for scope in (None, sorted(entity.experiments)[0]):
                system = eigen_closure_system(entity, "states", scope)
                assert sps_to_closure(closure_to_sps(entity.states, system)) == system

    def test_is_cartan_family_agrees_with_sps_to_closure(self):
        def listed_equal(sps, system):
            try:
                return sps_to_closure(sps) == system
            except ContractError:  # the images are not a closure system
                return False

        def without(sps, a):
            return StatePropertySystem(
                sps.states, sps.properties - {a}, {p: sps.actual[p] - {a} for p in sps.states}
            )

        rng = random.Random(47)
        seen = set()
        for _ in range(25):
            entity = random_entity(rng, 4, 3, 5)
            systems = [eigen_closure_system(entity, "states", e) for e in sorted(entity.experiments)]
            systems.append(eigen_closure_system(entity, "states"))
            for e in sorted(entity.experiments):
                sps = testable_sps(entity, e)
                variants = [sps] + [without(sps, a) for a in sorted(sps.properties, key=sorted)]
                for variant in variants:
                    for system in systems:
                        expected = listed_equal(variant, system)
                        assert is_cartan_family(variant, system) == expected
                        seen.add(expected)
        assert seen == {True, False}
        worked_sps = testable_sps(three_by_three(), "e")
        assert not is_cartan_family(worked_sps, eigen_closure_system(deterministic_pair(), "states", "h"))

    def test_a_ground_over_the_cap_is_held_without_listing(self, monkeypatch):
        ground = [f"s{i:02}" for i in range(30)]
        generators = [ground[:20], ground[10:], ground[5:25], ground[::2], ground[1::2]]
        system = ClosureSystem.generated(ground, generators)
        sweeps = []

        def counted(order, gens):
            sweeps.append(order)
            return _member_sets(order, gens)

        monkeypatch.setattr("soe.statprop._member_sets", counted)
        sps = closure_to_sps(ground, system)
        assert sweeps == []
        members = brute_intersection_closure(ground, [map(frozenset, generators)])
        assert sps.properties == members
        assert sps.actual == {p: frozenset(F for F in members if p in F) for p in ground}
        for F in members:
            assert cartan(sps, F) == F
        assert len(sweeps) == 1
        assert sps_to_closure(sps) is system and is_cartan_family(sps, system)
        with pytest.raises(CapacityError):
            system.members

    def test_ground_mismatch_rejected(self, worked):
        system = eigen_closure_system(worked, "states")
        with pytest.raises(ContractError):
            closure_to_sps({"p", "q"}, system)


class TestDistinguishable:
    def test_worked(self, worked):
        assert not is_distinguishable(worked)

    def test_renamed_outcomes(self):
        rng = random.Random(44)
        for _ in range(5):
            assert is_distinguishable(random_distinguishable_entity(rng))

    def test_single_experiment(self):
        entity = Entity({"s"}, {"h"}, {("h", "s"): {"o"}})
        assert is_distinguishable(entity)


class TestGlobalTestable:
    def test_worked_refused(self, worked):
        with pytest.raises(ContractError):
            global_testable_sps(worked)

    def test_two_experiment_toy(self):
        table = {
            ("e", "p"): {"e.a"},
            ("e", "q"): {"e.a", "e.b"},
            ("f", "p"): {"f.a", "f.b"},
            ("f", "q"): {"f.b"},
        }
        entity = Entity({"p", "q"}, {"e", "f"}, table)
        sps = global_testable_sps(entity)
        full = full_mixed_entity(entity)
        generated = intersection_closure(
            full.states,
            list(eigen_closure_system(full, "states", "e").members)
            + list(eigen_closure_system(full, "states", "f").members),
        )
        assert sps.properties == generated

    def test_single_experiment_restricts_to_base(self):
        entity = Entity(
            {"s", "t"}, {"h"}, {("h", "s"): {"o1"}, ("h", "t"): {"o1", "o2"}}
        )
        base = testable_sps(entity, "h")
        sps = global_testable_sps(entity)
        assert {frozenset(F & entity.states) for F in sps.properties} == base.properties
        assert len(sps.properties) == len(base.properties)

    def test_top_covers_all_mixed_states(self):
        rng = random.Random(45)
        for _ in range(5):
            entity = random_distinguishable_entity(rng, 3, 2, 2)
            sps = global_testable_sps(entity)
            full = full_mixed_entity(entity)
            assert cartan(sps, sps.top) == full.states

    def test_builds_only_the_total_row(self, monkeypatch):
        rng = random.Random(47)
        entities = [random_distinguishable_entity(rng, 4, 3, 3) for _ in range(5)]
        expected = [testable_sps(full_mixed_entity(e), mixture_id(e.experiments)) for e in entities]

        def refused(*args, **kwargs):
            raise AssertionError("built the full mixed entity")

        monkeypatch.setattr("soe.statprop.full_mixed_entity", refused)
        for entity, want in zip(entities, expected):
            sps = global_testable_sps(entity)
            assert sps == want
            outcomes = frozenset().union(*want.labels.values())
            for x in outcomes:
                assert sps.testable_property(outcomes - {x}) == want.testable_property(outcomes - {x})
            assert sps.labels == want.labels

    def test_minted_collision_is_refused(self):
        table = {(e, p): {f"{e}.{p}"} for e in ("a", "b", "a+b") for p in ("p", "q")}
        entity = Entity({"p", "q"}, {"a", "b", "a+b"}, table)
        with pytest.raises(EntityValidationError) as err:
            global_testable_sps(entity)
        assert str(err.value) == (
            "minted identifier collision with conflicting rows at (a+b, p); "
            "rename base identifiers containing '+'"
        )

    def test_minted_row_matches_its_definition(self):
        """Every name of the total mixed row is `mixture_id` of its decoded
        states, and every meeting mask holds exactly the mixtures P with
        P & S nonzero (mixture P is bit P - 1). The names join states in
        `str` order, as `mixture_id` does, on identifiers whose numeric order
        differs from it (s10 before s2); the holder index hands
        `global_testable_sps` its states in that order, which the last
        assertion pins for an entity built from them unsorted."""
        rng = random.Random(48)
        names = ["s2", "s10", "s1", "s100", "s20", "s3", "s11", "s9", "s30", "s0"]
        cases = [sorted(names[:n]) for n in range(1, 11)] + [sorted(f"s{i}" for i in range(15))]
        for items in cases:
            n = len(items)
            states = _Order(items)
            mixtures = range(1, 2**n)
            row = _total_row(items)
            assert row.items == tuple(mixture_id(states.decode(P)) for P in mixtures)
            assert row.full == 2 ** len(mixtures) - 1
            every = range(2**n) if n <= 7 else [0, states.full, 1, 1 << (n - 1)] + rng.sample(range(2**n), 12)
            for S in every:
                expected = sum(1 << (P - 1) for P in mixtures if P & S)
                assert _meeting_mask(row.full, n, S) == expected, (items, S)
        entity = Entity(names, {"e"}, {("e", p): {p} for p in names})
        minted = _total_row(_holder_index(entity).states.items).items
        states = _Order(sorted(names))
        assert minted == tuple(mixture_id(states.decode(P)) for P in range(1, 2 ** len(names)))
        assert global_testable_sps(entity).states == set(minted)

    def test_budget_refusal_is_the_row_budget(self):
        # the 2^|states| - 1 cells of the total mixed row are budgeted, not
        # the full mixed entity, which 9 states and 8 experiments exceed
        states = [f"p{i}" for i in range(9)]
        table = {(f"e{k}", p): {f"e{k}.x"} for k in range(8) for p in states}
        entity = Entity(states, {f"e{k}" for k in range(8)}, table)
        with pytest.raises(CapacityError, match=r"^mixture space 2\^9 \* 2\^8 exceeds budget 65536$"):
            full_mixed_entity(entity)
        assert len(global_testable_sps(entity).states) == 2**9 - 1
        assert TOTAL_ROW_BUDGET == 2**15
        for n, refused in ((15, False), (16, True)):
            states = [f"p{i}" for i in range(n)]
            wide = Entity(states, {"e"}, {("e", p): {"x"} for p in states})
            if refused:
                with pytest.raises(CapacityError) as err:
                    global_testable_sps(wide)
                assert str(err.value) == "total mixed row of 2^16 - 1 = 65535 cells exceeds budget 32768"
            else:
                assert global_testable_sps(wide).states == {mixture_id(P) for P in powerset(states) if P}

    def test_mixed_experiment_eigen_identity(self):
        # eigen sets of a mixed experiment are the intersections of the parts'
        rng = random.Random(46)
        for _ in range(5):
            entity = random_entity(rng, 2, 2, 3)
            full = full_mixed_entity(entity)
            experiments = sorted(entity.experiments)
            for E_sub in powerset(experiments):
                if not E_sub:
                    continue
                eid = mixture_id(E_sub)
                full_outcomes = full.experiment_outcomes(eid)
                for A in powerset(full_outcomes):
                    lhs = eig_states(full, eid, A)
                    rhs = frozenset(full.states)
                    for e in sorted(E_sub):
                        rhs &= eig_states(full, e, A & full.experiment_outcomes(e))
                    assert lhs == rhs


class TestValidateAbstractSps:
    def test_a_state_outside_the_states_is_refused(self):
        with pytest.raises(ContractError, match=r"^actual-property map lists states outside the state set: \['t'\]$"):
            StatePropertySystem({"s"}, {"I"}, {"s": {"I"}, "t": {"I"}})
        with pytest.raises(ContractError, match="missing state 's'"):
            StatePropertySystem({"s", "t"}, {"I"}, {"t": {"I"}})

    def test_accepts_valid_abstract_system(self):
        # a hand-made identified system: two properties, top and bottom
        sps = StatePropertySystem(
            {"s", "t"},
            {"I", "0"},
            {"s": {"I"}, "t": {"I"}},
        )
        diag = validate_sps(sps)
        assert diag.passed, diag.failures

    def test_accepts_states_of_mixed_types(self):
        sps = StatePropertySystem({1, "a"}, {"I", "0"}, {1: {"I"}, "a": {"I"}})
        diag = validate_sps(sps)
        assert diag.passed, diag.failures

    def test_names_the_least_state_of_mixed_types(self):
        # A and B are both actual in 1 and 'a', but their meet is 0; ints and
        # strs have no common order, so the states go by (type name, repr)
        sps = StatePropertySystem(
            {1, "a", "s", "t"},
            {"I", "A", "B", "0"},
            {1: {"I", "A", "B"}, "a": {"I", "A", "B"}, "s": {"I", "A"}, "t": {"I", "B"}},
        )
        assert validate_sps(sps).failures == ["xi.meet_stability: state 1, properties 'A', 'B'"]

    def test_flags_equivalent_distinct_properties(self):
        sps = StatePropertySystem(
            {"s"},
            {"I", "J", "0"},
            {"s": {"I", "J"}},
        )
        diag = validate_sps(sps)
        assert not diag.checks["lattice.identified"]

    def test_flags_missing_top(self):
        sps = StatePropertySystem(
            {"s", "t"},
            {"a", "0"},
            {"s": {"a"}, "t": set()},
        )
        diag = validate_sps(sps)
        assert not diag.passed

    def test_a_missing_binary_meet_is_named(self):
        # a and b share the lower bounds x = {t} and y = {u}, whose union
        # {t, u} is no image, so the pair has no meet
        sps = StatePropertySystem(
            {"s", "t", "u", "v"},
            {"I", "a", "b", "x", "y", "0"},
            {"s": {"I", "a"}, "t": {"I", "a", "b", "x"}, "u": {"I", "a", "b", "y"}, "v": {"I", "b"}},
        )
        diag = validate_sps(sps)
        assert diag.failures == ["lattice.binary_meets: no meet of 'a' and 'b'"]
        assert [name for name, ok in diag.checks.items() if not ok] == ["lattice.binary_meets"]

    def test_a_meet_that_is_not_actual_is_named(self):
        # the meet of a and b is 0, but both are actual in t
        sps = StatePropertySystem(
            {"s", "t", "u"},
            {"I", "a", "b", "0"},
            {"s": {"I", "a"}, "t": {"I", "a", "b"}, "u": {"I", "b"}},
        )
        diag = validate_sps(sps)
        assert diag.failures == ["xi.meet_stability: state 't', properties 'a', 'b'"]
        assert [name for name, ok in diag.checks.items() if not ok] == ["xi.meet_stability"]
