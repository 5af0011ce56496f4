import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import soe
from soe.closure import (
    ClosureSystem,
    OrthoSpace,
    _Order,
    closure_of,
    eig_central,
    eig_experiments,
    eig_states,
    eigen_closure_system,
    entity_ortho_space,
    intersection_closure,
    is_outcome_open,
    orth_complement,
    ortho_closure,
    ortho_closure_system,
    outcome_closure,
    outcome_closure_system,
    outcome_interior,
    state_trace,
    validate_closure_axioms,
)
from soe.entity import Entity
from soe.errors import CapacityError, ContractError, UnknownIdentifierError
from soe.mixture import mixed_outcome_set
from soe.statprop import testable_sps

from conftest import random_distinguishable_entity, random_entity
from oracles import (
    brute_eig_central_family,
    brute_eig_experiment_family,
    brute_eig_state_family,
    brute_intersection_closure,
    brute_ortho_closed_sets,
    brute_smallest_member,
    powerset,
)


def fs(*members):
    return frozenset(frozenset(m) for m in members)


L11, L12, L13 = ("e", "p"), ("e", "q"), ("e", "r")
L21, L22, L23 = ("f", "p"), ("f", "q"), ("f", "r")
L31, L32, L33 = ("g", "p"), ("g", "q"), ("g", "r")
ALL_COUPLES = {L11, L12, L13, L21, L22, L23, L31, L32, L33}

# the full central eigen family of the worked entity, frozen from the
# definitional brute force over all 32 outcome subsets
WORKED_CENTRAL_EIGEN = fs(
    (),
    {L32},
    {L12},
    {L31},
    {L21},
    {L11, L32},
    {L13, L32},
    {L22, L32},
    {L12, L31},
    {L21, L31},
    {L21, L23},
    {L11, L12, L13, L32},
    {L11, L31, L32, L33},
    {L11, L22, L32},
    {L13, L22, L32},
    {L21, L22, L32},
    {L11, L12, L13, L31, L32, L33},
    {L11, L12, L13, L22, L32},
    {L11, L21, L22, L31, L32, L33},
    {L12, L21, L23, L31},
    {L13, L21, L22, L23, L32},
    ALL_COUPLES,
)

WORKED_CENTRAL_ORTHO = fs(
    (),
    {L12},
    {L21},
    {L31},
    {L32},
    {L11, L32},
    {L13, L32},
    {L22, L32},
    {L21, L23},
    {L21, L31},
    {L12, L31},
    {L21, L22, L32},
    {L13, L22, L32},
    {L11, L12, L13, L32},
    {L12, L21, L23, L31},
    ALL_COUPLES,
)


class TestEigMaps:
    def test_state_examples(self, worked):
        assert eig_states(worked, "e", {"x1", "x2"}) == {"p"}
        assert eig_states(worked, "e", set()) == set()
        assert eig_states(worked, "g", {"x2"}) == {"q"}

    def test_experiment_examples(self, worked):
        assert eig_experiments(worked, "p", {"x1", "x2", "y1"}) == {"e", "g"}
        assert eig_experiments(worked, "p", worked.state_outcomes("p")) == worked.experiments
        assert eig_experiments(worked, "q", {"x2", "y2"}) == {"f", "g"}

    def test_central_examples(self, worked):
        assert eig_central(worked, {"x2"}) == {L32}
        assert eig_central(worked, worked.outcomes) == ALL_COUPLES
        assert eig_central(worked, {"x1", "x2", "x3", "y2"}) == {L11, L12, L13, L22, L32}

    def test_bad_subset_rejected(self, worked):
        with pytest.raises(ContractError):
            eig_states(worked, "e", {"y1"})  # y1 is not an outcome of e
        with pytest.raises(ContractError):
            eig_central(worked, {"zz"})

    def test_preserves_intersections(self):
        # all three eigen maps turn intersections of outcome sets into
        # intersections of their images
        rng = random.Random(21)
        for _ in range(20):
            entity = random_entity(rng, 4, 4, 6)
            e = sorted(entity.experiments)[0]
            p = sorted(entity.states)[0]
            for full, mapper in (
                (entity.experiment_outcomes(e), lambda A: eig_states(entity, e, A)),
                (entity.state_outcomes(p), lambda A: eig_experiments(entity, p, A)),
                (entity.outcomes, lambda A: eig_central(entity, A)),
            ):
                As = [
                    frozenset(rng.sample(sorted(full), rng.randint(0, len(full))))
                    for _ in range(3)
                ]
                inter = As[0] & As[1] & As[2]
                assert mapper(inter) == (mapper(As[0]) & mapper(As[1]) & mapper(As[2]))

    def test_generator_identity(self):
        # eig_e(A) equals the intersection of the one-outcome-dropped
        # generators over the dropped outcomes outside A
        rng = random.Random(22)
        for _ in range(20):
            entity = random_entity(rng, 4, 3, 5)
            e = sorted(entity.experiments)[-1]
            full = entity.experiment_outcomes(e)
            for A in powerset(full):
                expected = frozenset(entity.states)
                for x in full - A:
                    expected &= eig_states(entity, e, full - {x})
                assert eig_states(entity, e, A) == expected


class TestEigenClosureSystems:
    def test_worked_state_families(self, worked):
        assert eigen_closure_system(worked, "states", "e").members == fs(
            (), {"p"}, {"q"}, {"r"}, {"p", "q", "r"}
        )
        assert eigen_closure_system(worked, "states", "f").members == fs(
            (), {"p"}, {"q"}, {"p", "q"}, {"p", "r"}, {"p", "q", "r"}
        )
        assert eigen_closure_system(worked, "states", "g").members == fs(
            (), {"p"}, {"q"}, {"p", "q", "r"}
        )
        assert eigen_closure_system(worked, "states").members == fs(
            (), {"p"}, {"q"}, {"r"}, {"p", "q"}, {"p", "r"}, {"p", "q", "r"}
        )

    def test_worked_experiment_families(self, worked):
        assert eigen_closure_system(worked, "experiments", "p").members == fs(
            (), {"e"}, {"f"}, {"g"}, {"e", "g"}, {"f", "g"}, {"e", "f", "g"}
        )
        assert eigen_closure_system(worked, "experiments", "q").members == fs(
            (), {"e"}, {"g"}, {"e", "g"}, {"f", "g"}, {"e", "f", "g"}
        )
        assert eigen_closure_system(worked, "experiments", "r").members == fs(
            (), {"e"}, {"f"}, {"g"}, {"e", "g"}, {"e", "f"}, {"e", "f", "g"}
        )
        assert eigen_closure_system(worked, "experiments").members == frozenset(
            powerset({"e", "f", "g"})
        )

    def test_worked_central_family(self, worked):
        assert eigen_closure_system(worked, "central").members == WORKED_CENTRAL_EIGEN

    def test_central_family_matches_brute_force(self, worked):
        assert brute_eig_central_family(worked) == WORKED_CENTRAL_EIGEN

    def test_generator_method_equals_brute_force(self):
        rng = random.Random(23)
        for _ in range(15):
            entity = random_entity(rng, 4, 3, 6)
            for e in sorted(entity.experiments):
                assert eigen_closure_system(entity, "states", e).members == brute_eig_state_family(
                    entity, e
                )
            for p in sorted(entity.states):
                assert eigen_closure_system(
                    entity, "experiments", p
                ).members == brute_eig_experiment_family(entity, p)
            assert eigen_closure_system(entity, "central").members == brute_eig_central_family(
                entity
            )

    @pytest.mark.parametrize("on", ["states", "experiments"])
    def test_unknown_scope_is_an_unknown_identifier(self, worked, on):
        with pytest.raises(UnknownIdentifierError):
            eigen_closure_system(worked, on, "nope")

    def test_global_is_generated_intersection_closure(self):
        rng = random.Random(24)
        for _ in range(10):
            entity = random_entity(rng, 3, 3, 5)
            got = eigen_closure_system(entity, "states").members
            expected = brute_intersection_closure(
                entity.states,
                [brute_eig_state_family(entity, e) for e in entity.experiments],
            )
            assert got == expected


class TestClosureOf:
    def test_worked_singletons(self, worked):
        y = eigen_closure_system(worked, "central")
        assert closure_of(y, {L11}) == {L11, L32}
        assert closure_of(y, {L23}) == {L21, L23}
        assert closure_of(y, {L23}) == eig_central(worked, worked.outcome_set("f", "r"))
        assert closure_of(y, set()) == set()
        assert closure_of(y, {L33}) == {L11, L31, L32, L33}

    def test_singleton_closure_is_eig_of_cell(self, worked):
        y = eigen_closure_system(worked, "central")
        for couple, cell in worked.cells():
            assert closure_of(y, {couple}) == eig_central(worked, cell)

    def test_smallest_member(self):
        rng = random.Random(25)
        for _ in range(10):
            entity = random_entity(rng, 4, 3, 5)
            system = eigen_closure_system(entity, "central")
            for _ in range(10):
                K = frozenset(
                    rng.sample(entity.couples(), rng.randint(0, len(entity.couples())))
                )
                got = closure_of(system, K)
                assert got == brute_smallest_member(system.members, K)
                assert closure_of(system, got) == got  # idempotent

    def test_outside_ground_rejected(self, worked):
        y = eigen_closure_system(worked, "states")
        with pytest.raises(ContractError):
            closure_of(y, {"zz"})


SMALL = ClosureSystem.generated({"a", "b"}, [set(), {"a"}])


class TestRefusalsNamingItemsOfMixedTypes:
    """A refusal lists its stray items in `natural_order`: sorted when they
    compare, else by type name and repr, never a bare TypeError from sorting."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda worked: SMALL.closure_of({1, "z"}), "[1, 'z'] lie outside the ground set"),
            (lambda worked: SMALL.closure_of({"z", "y"}), "['y', 'z'] lie outside the ground set"),
            (lambda worked: ClosureSystem.generated({"a"}, [set(), {1, "z"}]),
             "family member [1, 'z'] is not a subset of the ground set"),
            (lambda worked: ClosureSystem({"a"}, [set(), {"a"}, {1, "z"}]),
             "family member [1, 'z'] is not a subset of the ground set"),
            (lambda worked: intersection_closure({"a"}, [{("e", "p"), "z"}]),
             "family member ['z', ('e', 'p')] is not a subset of the ground set"),
            (lambda worked: eig_states(worked, "e", {1, "x1"}), "outcome set [1, 'x1'] is not a subset of O(e)"),
            (lambda worked: eig_experiments(worked, "p", {1, "x1"}), "outcome set [1, 'x1'] is not a subset of O(p)"),
            (lambda worked: eig_central(worked, {1, "zz"}), "unknown outcomes: [1, 'zz']"),
            (lambda worked: outcome_closure(worked, {1, "zz"}), "unknown outcomes: [1, 'zz']"),
            (lambda worked: outcome_interior(worked, {1, "zz"}), "unknown outcomes: [1, 'zz']"),
            (lambda worked: outcome_interior(worked, {"zz", "yy"}), "unknown outcomes: ['yy', 'zz']"),
            (lambda worked: orth_complement(entity_ortho_space(worked, "states"), {1, "zz"}),
             "[1, 'zz'] lie outside the ground set"),
            (lambda worked: mixed_outcome_set(worked, "e", {1, "zz"}),
             "mixed state base contains unknown identifiers: [1, 'zz']"),
            (lambda worked: testable_sps(worked, "e").testable_property({1, "zz"}),
             "[1, 'zz'] are not outcomes of this experiment"),
        ],
        ids=[
            "closure_of",
            "closure_of_comparable",
            "generated",
            "listed",
            "intersection_closure",
            "eig_states",
            "eig_experiments",
            "eig_central",
            "outcome_closure",
            "outcome_interior",
            "outcome_interior_comparable",
            "orth_complement",
            "mixed_outcome_set",
            "testable_property",
        ],
    )
    def test_the_typed_refusal_names_the_items(self, worked, call, message):
        with pytest.raises(ContractError) as refused:
            call(worked)
        assert str(refused.value) == message


class TestOrthoClosure:
    def test_worked_complements(self, worked):
        central = entity_ortho_space(worked, "central")
        assert orth_complement(central, {L11}) == {L21, L23}
        assert orth_complement(central, set()) == ALL_COUPLES
        assert orth_complement(central, {L33}) == set()
        states = entity_ortho_space(worked, "states")
        assert orth_complement(states, {"r"}) == set()
        assert orth_complement(states, {"p"}) == {"q"}

    def test_worked_central_system(self, worked):
        space = entity_ortho_space(worked, "central")
        assert ortho_closure_system(space).members == WORKED_CENTRAL_ORTHO

    def test_worked_state_systems(self, worked):
        assert ortho_closure_system(entity_ortho_space(worked, "states")).members == fs(
            (), {"p"}, {"q"}, {"p", "q", "r"}
        )
        assert ortho_closure_system(entity_ortho_space(worked, "states", "e")).members == fs(
            (), {"p", "q", "r"}
        )
        assert ortho_closure_system(entity_ortho_space(worked, "states", "g")).members == fs(
            (), {"p"}, {"q"}, {"p", "q", "r"}
        )

    def test_ortho_closure_of_singleton(self, worked):
        space = entity_ortho_space(worked, "central")
        system = ortho_closure_system(space)
        assert closure_of(system, {L33}) == ALL_COUPLES
        assert closure_of(system, {L33}) != closure_of(
            eigen_closure_system(worked, "central"), {L33}
        )

    def test_system_matches_double_complement_fixed_points(self):
        rng = random.Random(26)
        for _ in range(10):
            entity = random_entity(rng, 3, 3, 5)
            space = entity_ortho_space(entity, "central")
            system = ortho_closure_system(space)
            assert system.members == brute_ortho_closed_sets(
                space.ground, space.orthogonal
            )
            for _ in range(5):
                K = frozenset(rng.sample(sorted(space.ground), rng.randint(0, len(space.ground))))
                assert closure_of(system, K) == ortho_closure(space, K)

    def test_orthocomplementation_laws(self):
        rng = random.Random(27)
        for _ in range(10):
            entity = random_entity(rng, 3, 3, 5)
            space = entity_ortho_space(entity, "states")
            members = sorted(
                ortho_closure_system(space).members, key=lambda m: (len(m), tuple(sorted(m)))
            )
            for K in members:
                Kp = orth_complement(space, K)
                assert orth_complement(space, Kp) == K  # double complement fixes closed sets
                assert not (K & Kp)
                for L in members:
                    if K <= L:
                        assert orth_complement(space, L) <= Kp
                    assert orth_complement(space, K | L) == Kp & orth_complement(space, L)

    def test_asymmetric_relation_rejected(self):
        with pytest.raises(ContractError, match="symmetric"):
            OrthoSpace({"a", "b"}, {"a": {"b"}})
        with pytest.raises(ContractError, match="anti-reflexive"):
            OrthoSpace({"a"}, {"a": {"a"}})

    def test_refusal_witnesses_do_not_depend_on_the_hash_seed(self):
        script = (
            "from soe.closure import OrthoSpace\n"
            "for ground, perp in [('abc', {'a': 'a', 'b': 'b', 'c': 'c'}), ('abcd', {'a': 'b', 'c': 'd'})]:\n"
            "    try:\n"
            "        OrthoSpace(set(ground), perp)\n"
            "    except Exception as err:\n"
            "        print(err)\n"
        )
        src = str(Path(soe.__file__).resolve().parents[1])
        expected = (
            "orthogonality must be anti-reflexive; got ('a', 'a')\n"
            "orthogonality must be symmetric; ('b', 'a') missing\n"
        )
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
            assert (run.stdout, run.stderr) == (expected, ""), seed

    def test_points_outside_the_ground_rejected(self):
        with pytest.raises(ContractError, match="'c', which lies outside the ground set"):
            OrthoSpace({"a", "b"}, {"a": {"b"}, "b": {"a"}, "c": set()})
        with pytest.raises(ContractError, match=r"pair \('a', 'c'\) lies outside"):
            OrthoSpace({"a", "b"}, {"a": {"c"}})

    def test_several_faults_name_the_earliest_class(self):
        # each input holds every later fault too; a one-sided pair at 'a'
        # precedes the self-orthogonal 'c' in point order, not in class order
        ground = {"a", "b", "c"}
        cases = [
            ({"a": {"b"}, "c": {"c", "z"}, "d": set()}, "orthocomplement given for 'd', which lies outside"),
            ({"a": {"b"}, "c": {"c", "z"}}, r"orthogonal pair \('c', 'z'\) lies outside"),
            ({"a": {"b"}, "c": {"c"}}, r"anti-reflexive; got \('c', 'c'\)"),
            ({"a": {"b"}}, r"symmetric; \('b', 'a'\) missing"),
        ]
        for perp, message in cases:
            with pytest.raises(ContractError, match=message):
                OrthoSpace(ground, perp)

    def test_outcome_scope_must_be_an_experiment_state_pair(self):
        entity = Entity({"p", "1"}, {"e"}, {("e", "p"): {"x", "y"}, ("e", "1"): {"y"}})
        for scope in ("ep", "e1", ("e", "p", "x")):
            with pytest.raises(ContractError, match=r"an \(experiment, state\) pair, got"):
                entity_ortho_space(entity, "outcomes", scope)
        assert entity_ortho_space(entity, "outcomes", ("e", "p")).perp["x"] == {"y"}

    def test_a_point_left_out_is_orthogonal_to_nothing(self):
        space = OrthoSpace({"a", "b", "c"}, {"a": {"b"}, "b": {"a"}})
        assert space.perp["c"] == frozenset()
        assert space.orthogonal("a", "b") and not space.orthogonal("a", "c")
        assert ortho_closure_system(space).generators == {frozenset({"a"}), frozenset({"b"}), frozenset()}


class TestOrthoInsideEigen:
    def test_worked(self, worked):
        assert WORKED_CENTRAL_ORTHO <= WORKED_CENTRAL_EIGEN
        assert ortho_closure_system(entity_ortho_space(worked, "central")).members <= (
            eigen_closure_system(worked, "central").members
        )

    def test_random(self):
        rng = random.Random(28)
        for _ in range(15):
            entity = random_entity(rng, 4, 3, 5)
            assert ortho_closure_system(entity_ortho_space(entity, "central")).members <= (
                eigen_closure_system(entity, "central").members
            )
            for e in sorted(entity.experiments):
                assert ortho_closure_system(entity_ortho_space(entity, "states", e)).members <= (
                    eigen_closure_system(entity, "states", e).members
                )
            for p in sorted(entity.states):
                assert ortho_closure_system(
                    entity_ortho_space(entity, "experiments", p)
                ).members <= eigen_closure_system(entity, "experiments", p).members


class TestStateTrace:
    def test_worked(self, worked):
        # frozen from the definitional oracle: the corrected central eigen
        # member {L11,L12,L13,L22,L32} carries the full q column, so {q} is a
        # trace; no ortho member except the ground carries a full column
        eig_trace = state_trace(eigen_closure_system(worked, "central"))
        assert eig_trace.members == fs((), {"p"}, {"q"}, {"p", "q", "r"})
        orth_trace = state_trace(ortho_closure_system(entity_ortho_space(worked, "central")))
        assert orth_trace.members == fs((), {"p", "q", "r"})

    def test_worked_trace_against_oracle(self, worked):
        experiments = sorted(worked.experiments)
        for members, system in (
            (brute_eig_central_family(worked), state_trace(eigen_closure_system(worked, "central"))),
            (
                brute_ortho_closed_sets(
                    frozenset(worked.couples()),
                    lambda a, b: not (worked.outcome_set(*a) & worked.outcome_set(*b)),
                ),
                state_trace(ortho_closure_system(entity_ortho_space(worked, "central"))),
            ),
        ):
            expected = frozenset(
                frozenset(p for p in worked.states if all((e, p) in Y for e in experiments))
                for Y in members
            )
            assert system.members == expected

    def test_worked_trace_of_named_member(self, worked):
        # the member eig({x1,x2,y1,y2}) carries exactly the p column
        member = eig_central(worked, {"x1", "x2", "y1", "y2"})
        assert member == {L11, L21, L22, L31, L32, L33}
        trace = frozenset(
            p for p in worked.states if all((e, p) in member for e in sorted(worked.experiments))
        )
        assert trace == {"p"}

    def test_full_power_system(self, worked):
        couples = frozenset(worked.couples())
        full = ClosureSystem(couples, frozenset(powerset(couples)))
        assert state_trace(full).members == frozenset(powerset(worked.states))

    def test_trace_differs_from_state_system_here(self, worked):
        assert state_trace(eigen_closure_system(worked, "central")) != eigen_closure_system(
            worked, "states"
        )

    def test_distinguishable_entities_trace_equals_state_system(self):
        rng = random.Random(29)
        for _ in range(15):
            entity = random_distinguishable_entity(rng)
            assert state_trace(eigen_closure_system(entity, "central")) == eigen_closure_system(
                entity, "states"
            )


class TestOutcomeClosure:
    def test_examples(self, worked):
        assert outcome_closure(worked, set()) == set()
        assert outcome_closure(worked, {"x1"}) == {"x1"}

    def test_cells_are_open(self, worked):
        for _, cell in worked.cells():
            assert is_outcome_open(worked, cell)

    def test_eig_ignores_non_interior_points(self, worked):
        for A in powerset(worked.outcomes):
            assert eig_central(worked, A) == eig_central(worked, outcome_interior(worked, A))

    def test_closure_operator_axioms(self):
        rng = random.Random(30)
        for _ in range(10):
            entity = random_entity(rng, 3, 3, 5)
            for A in powerset(entity.outcomes):
                clA = outcome_closure(entity, A)
                assert A <= clA
                assert outcome_closure(entity, clA) == clA
            system = outcome_closure_system(entity)
            assert validate_closure_axioms(system.ground, system.members).passed
            assert system.members == {A for A in powerset(entity.outcomes) if outcome_closure(entity, A) == A}

    def test_shares_the_ground_cap(self):
        def one_cell(n):
            return Entity({"s"}, {"h"}, {("h", "s"): {f"x{i}" for i in range(n)}})

        assert len(outcome_closure_system(one_cell(24)).members) == 2  # the empty set and X
        with pytest.raises(CapacityError):
            outcome_closure_system(one_cell(25)).members


class TestValidateAxioms:
    def test_worked_families_pass(self, worked):
        for system in (
            eigen_closure_system(worked, "central"),
            eigen_closure_system(worked, "states"),
            ortho_closure_system(entity_ortho_space(worked, "central")),
        ):
            diag = validate_closure_axioms(system.ground, system.members)
            assert diag.passed, diag.failures

    def test_missing_empty_set(self):
        diag = validate_closure_axioms({"a", "b"}, [{"a"}, {"a", "b"}])
        assert not diag.checks["system.contains_empty"]
        assert not diag.checks["operator.empty_fixed"]

    def test_intersection_gap_found(self):
        assert validate_closure_axioms({"a", "b", "c"}, [set(), {"a"}, {"b"}, {"a", "b", "c"}]).passed
        diag = validate_closure_axioms({"a", "b", "c"}, [set(), {"a", "b"}, {"b", "c"}, {"a", "b", "c"}])
        assert not diag.checks["system.intersection_closed"]
        assert any("['b']" in f for f in diag.failures)

    def test_the_first_of_several_missing_pairs_is_named(self):
        # five pairs meet outside the family; the witness is the first pair in
        # size-then-lexicographic order
        diag = validate_closure_axioms("abcd", [set(), {"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "c"}, set("abcd")])
        assert diag.failures == ["system.intersection_closed: ['a', 'b'] & ['a', 'c'] = ['a'] missing"]
        assert diag.checks["system.contains_empty"] and diag.checks["operator.empty_fixed"]

    @pytest.mark.parametrize(
        "members, failure",
        [
            ([{"a"}, {"a", "b", "c"}], "system.contains_empty"),
            ([set(), {"a"}], "system.contains_ground"),
            ([set(), {"a", "b"}, {"b", "c"}, {"a", "b", "c"}], r"system.intersection_closed: \['a', 'b'\] & \['b', 'c'\]"),
        ],
    )
    def test_listed_system_raises_its_first_failure(self, members, failure):
        with pytest.raises(ContractError, match=failure):
            ClosureSystem({"a", "b", "c"}, members)

    def test_a_member_outside_the_ground_is_refused(self):
        for build in (ClosureSystem, ClosureSystem.generated, validate_closure_axioms, intersection_closure):
            with pytest.raises(ContractError, match=r"^family member \['d'\] is not a subset of the ground set$"):
                build({"a", "b", "c"}, [set(), {"d"}, {"a", "b", "c"}])

    def test_intersection_closure_matches_brute_force(self):
        rng = random.Random(31)
        ground = frozenset("abcde")
        for _ in range(10):
            gens = [
                frozenset(rng.sample(sorted(ground), rng.randint(0, 5))) for _ in range(4)
            ]
            assert intersection_closure(ground, gens) == brute_intersection_closure(ground, [gens])

    def test_generation_is_order_independent(self):
        rng = random.Random(32)
        ground = frozenset("abcdef")
        gens = [frozenset(rng.sample(sorted(ground), rng.randint(0, 6))) for _ in range(5)]
        reference = intersection_closure(ground, gens)
        for _ in range(10):
            shuffled = list(gens)
            rng.shuffle(shuffled)
            assert intersection_closure(ground, shuffled) == reference


def test_an_order_and_one_round_trip_allocate_linear_memory():
    """Building an order of 5 * 10^4 couples, encoding half of them and
    decoding the mask stays within 256 bytes per item; one int per item
    (bit i as its own int) would take n^2 / 16 bytes, over ten times that."""
    n = 50_000
    items = [(f"e{i // 100}", f"p{i % 100}") for i in range(n)]
    ground, K = frozenset(items), items[::2]
    tracemalloc.start()
    try:
        order = _Order(items, ground)
        assert order.decode(order.mask(K)) == frozenset(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * n < n * n / 16 / 10
