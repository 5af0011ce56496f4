import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import soe.morphism
from soe.closure import eigen_closure_system
from soe.diagnostics import Diagnostics
from soe.entity import Entity, RelationKind, implies, orthogonal, view_implies
from soe.errors import ConsistencyError, ContractError
from soe.morphism import (
    ProbabilityCorrespondence,
    SpsMorphism,
    SubEntityWitness,
    morphism_from_continuous_map,
    preimage_continuity,
    verify_probabilistic_sub_entity,
    verify_sps_morphism,
    verify_sub_entity,
)
from soe.probability import ProbabilisticEntity, ProbabilityTable, d_classical_measure
from soe.statprop import StatePropertySystem, closure_to_sps, testable_sps

from conftest import random_entity


def relabeled_copy(entity: Entity):
    """A disjoint relabeling of an entity plus the witness mapping back."""
    state_map = {p: f"S.{p}" for p in entity.states}
    exp_map = {e: f"E.{e}" for e in entity.experiments}
    out_map = {x: f"X.{x}" for x in entity.outcomes}
    table = {
        (exp_map[e], state_map[p]): {out_map[x] for x in cell}
        for (e, p), cell in entity.cells()
    }
    big = Entity(state_map.values(), exp_map.values(), table)
    witness = SubEntityWitness(
        m={state_map[p]: p for p in entity.states},
        n=exp_map,
        l=out_map,
    )
    return big, witness


class TestVerifySubEntity:
    def test_identity_witness(self, worked):
        diag = verify_sub_entity(worked, worked, SubEntityWitness.identity(worked))
        assert diag.passed, diag.failures

    def test_relabeled_copy(self, worked):
        big, witness = relabeled_copy(worked)
        diag = verify_sub_entity(worked, big, witness)
        assert diag.passed, diag.failures

    def test_collapsing_outcome_map_fails(self, worked):
        big, witness = relabeled_copy(worked)
        bad_l = dict(witness.l)
        bad_l["x1"] = bad_l["x2"]
        diag = verify_sub_entity(worked, big, SubEntityWitness(witness.m, witness.n, bad_l))
        assert not diag.checks["l.injective"]

    def test_non_surjective_state_map_fails(self, worked):
        big, witness = relabeled_copy(worked)
        bad_m = {P: "p" for P in big.states}
        diag = verify_sub_entity(worked, big, SubEntityWitness(bad_m, witness.n, witness.l))
        assert not diag.checks["m.surjective"]

    def test_covariance_break_reported_with_witness(self, worked):
        big, witness = relabeled_copy(worked)
        bad_m = dict(witness.m)
        # send the big copy of q to r: cells stop matching
        bad_m["S.q"] = "r"
        bad_m["S.r"] = "q"
        diag = verify_sub_entity(worked, big, SubEntityWitness(bad_m, witness.n, witness.l))
        assert not diag.checks["covariance.cell_bijection"]
        assert any("S.q" in line or "S.r" in line for line in diag.failures)

    def test_cell_bijection_witnesses_name_each_failing_cell(self):
        # each witness is built when its cell fails, from that cell's values
        entity = Entity(
            {"p", "q"},
            {"e", "f"},
            {("e", "p"): {"x", "y"}, ("e", "q"): {"x"}, ("f", "p"): {"z"}, ("f", "q"): {"z", "w"}},
        )
        swapped = SubEntityWitness({"p": "q", "q": "p"}, {"e": "e", "f": "f"}, {x: x for x in entity.outcomes})
        assert verify_sub_entity(entity, entity, swapped).failures == [
            "covariance.cell_bijection: l(O(e, q)) = ['x'] but O(e, p) = ['x', 'y']",
            "covariance.cell_bijection: l(O(f, q)) = ['w', 'z'] but O(f, p) = ['z']",
            "covariance.cell_bijection: l(O(e, p)) = ['x', 'y'] but O(e, q) = ['x']",
            "covariance.cell_bijection: l(O(f, p)) = ['z'] but O(f, q) = ['w', 'z']",
        ]

    def test_partial_maps_rejected(self, worked):
        with pytest.raises(ContractError):
            verify_sub_entity(worked, worked, SubEntityWitness({}, {}, {}))

    def test_a_partial_map_names_its_missing_keys_in_order(self, worked):
        m = {p: p for p in worked.states if p != "p"}
        with pytest.raises(ContractError) as err:
            verify_sub_entity(worked, worked, SubEntityWitness({}, {}, {}))
        assert str(err.value) == f"the state map is not total; missing {sorted(worked.states)}"
        with pytest.raises(ContractError) as err:
            verify_sub_entity(worked, worked, SubEntityWitness(m, {}, {}))
        assert str(err.value) == "the state map is not total; missing ['p']"

    def test_random_relabelings(self):
        rng = random.Random(71)
        for _ in range(15):
            entity = random_entity(rng, 4, 3, 5)
            big, witness = relabeled_copy(entity)
            assert verify_sub_entity(entity, big, witness).passed


def first_couple_failure(small, big, w, views):
    """The message of the first couple pair, in the ordered scan over big
    states and small experiments, whose central relations do not transport."""
    kind = RelationKind.central()
    (small_view, small_orth), (big_view, big_orth) = views(small, kind), views(big, kind)
    for p in sorted(big.states):
        for q in sorted(big.states):
            for e in sorted(small.experiments):
                for f in sorted(small.experiments):
                    u, v = small_view((e, w.m[p])), small_view((f, w.m[q]))
                    u_big, v_big = big_view((w.n[e], p)), big_view((w.n[f], q))
                    if view_implies(u, v) != view_implies(u_big, v_big):
                        return f"couple implication not equivalent at (({e},{p}), ({f},{q}))"
                    if small_orth(u, v) != big_orth(u_big, v_big):
                        return f"couple orthogonality not equivalent at (({e},{p}), ({f},{q}))"
    return None


class TestTransportedCouples:
    """The couple relations are checked once per distinct pair of views; a
    failure still names the first couple pair of the full ordered scan."""

    def test_forced_failure_names_the_first_couple_pair(self, worked, monkeypatch):
        big, witness = relabeled_copy(worked)
        real = soe.morphism.relation_views
        relations = set()
        for couple in big.couples():
            for cell in ({"X.y2"}, {"X.x1", "X.x2", "X.x3", "X.y1", "X.y2"}):
                def tampered(entity, kind, couple=couple, cell=frozenset(cell)):
                    view, orthogonal_views = real(entity, kind)
                    if entity is big and kind.on == "central":
                        return (lambda c: (cell,) if c == couple else view(c)), orthogonal_views
                    return view, orthogonal_views

                expected = first_couple_failure(worked, big, witness, tampered)
                monkeypatch.setattr(soe.morphism, "relation_views", tampered)
                if expected is None:
                    assert verify_sub_entity(worked, big, witness).passed
                else:
                    with pytest.raises(ConsistencyError) as err:
                        verify_sub_entity(worked, big, witness)
                    assert str(err.value) == expected
                    relations.add(expected.split()[1])
                monkeypatch.setattr(soe.morphism, "relation_views", real)
        assert relations == {"implication", "orthogonality"}


class TestTransportedOutcomes:
    def test_forced_failure_names_the_first_outcome_pair(self, worked, monkeypatch):
        # the big entity's holder mask of X.x2 is emptied, so X.x2 is
        # orthogonal to nothing there
        big, witness = relabeled_copy(worked)
        real = soe.morphism._holder_masks

        def tampered(cells):
            cells = list(cells)
            has = real(cells)
            if cells == list(big._table.values()):
                has["X.x2"] = 0
            return has

        cells = list(worked._table.values())
        expected = next(
            (x, y)
            for x in sorted(worked.outcomes)
            for y in sorted(worked.outcomes)
            if x != y and any({x, y} <= cell for cell in cells) and "X.x2" in (witness.l[x], witness.l[y])
        )
        monkeypatch.setattr(soe.morphism, "_holder_masks", tampered)
        with pytest.raises(ConsistencyError) as err:
            verify_sub_entity(worked, big, witness)
        assert str(err.value) == f"outcome orthogonality not transported at ({expected[0]}, {expected[1]})"


class TestNegativeCovariance:
    """The witness contract does not force every relation through the maps."""

    def setup_method(self):
        self.small = Entity(
            {"a", "b"},
            {"h"},
            {("h", "a"): {"o1", "o2"}, ("h", "b"): {"o2", "o3"}},
        )
        # the big entity carries an extra experiment K that separates A and B
        self.big = Entity(
            {"A", "B"},
            {"H", "K"},
            {
                ("H", "A"): {"u1", "u2"},
                ("H", "B"): {"u2", "u3"},
                ("K", "A"): {"w1"},
                ("K", "B"): {"w2"},
            },
        )
        self.witness = SubEntityWitness(
            m={"A": "a", "B": "b"},
            n={"h": "H"},
            l={"o1": "u1", "o2": "u2", "o3": "u3"},
        )

    def test_witness_verifies(self):
        diag = verify_sub_entity(self.small, self.big, self.witness)
        assert diag.passed, diag.failures

    def test_big_orthogonality_not_reflected_in_small(self):
        state = RelationKind.state_global()
        assert orthogonal(self.big, state, "A", "B")
        assert not orthogonal(self.small, state, "a", "b")

    def test_small_implication_not_lifted(self):
        small = Entity(
            {"a", "b"},
            {"h"},
            {("h", "a"): {"o1"}, ("h", "b"): {"o1", "o2"}},
        )
        big = Entity(
            {"A", "B"},
            {"H", "K"},
            {
                ("H", "A"): {"u1"},
                ("H", "B"): {"u1", "u2"},
                ("K", "A"): {"w1", "w2"},
                ("K", "B"): {"w2"},
            },
        )
        witness = SubEntityWitness(
            m={"A": "a", "B": "b"}, n={"h": "H"}, l={"o1": "u1", "o2": "u2"}
        )
        assert verify_sub_entity(small, big, witness).passed
        state = RelationKind.state_global()
        # the images satisfy a < b yet the big states do not compare
        assert implies(small, state, "a", "b")
        assert not implies(big, state, "A", "B")


class TestSpsMorphism:
    def test_identity(self, worked):
        sps = testable_sps(worked, "e")
        mor = SpsMorphism(
            m={p: p for p in sps.states}, n={a: a for a in sps.properties}
        )
        diag = verify_sps_morphism(sps, sps, mor)
        assert diag.passed, diag.failures

    def test_preimage_morphism_from_continuous_map(self, worked):
        big, witness = relabeled_copy(worked)
        small_system = eigen_closure_system(worked, "states")
        big_system = eigen_closure_system(big, "states")
        mor = morphism_from_continuous_map(small_system, big_system, witness.m)
        diag = verify_sps_morphism(
            closure_to_sps(worked.states, small_system),
            closure_to_sps(big.states, big_system),
            mor,
        )
        assert diag.passed, diag.failures

    def test_top_mapped_wrong_fails(self, worked):
        sps = testable_sps(worked, "e")
        n = {a: a for a in sps.properties}
        n[sps.top] = sps.bottom
        diag = verify_sps_morphism(
            sps, sps, SpsMorphism(m={p: p for p in sps.states}, n=n)
        )
        assert not diag.passed

    def test_actuality_failures_are_named(self):
        sps = StatePropertySystem({"s", "t"}, {"I", "0"}, {"s": {"I"}, "t": {"I"}})
        mor = SpsMorphism(m={"s": "s", "t": "t"}, n={"I": "0", "0": "0"})
        diag = verify_sps_morphism(sps, sps, mor)
        assert diag.failures == [
            "morphism.actuality_equivalence: property 'I' at big state 's': True vs False",
            "morphism.actuality_equivalence: property 'I' at big state 't': True vs False",
        ]
        assert "morphism.meet_preserved" not in diag.checks

    def test_a_meet_that_is_not_preserved_is_named(self):
        # the same images on both sides, but only the big system has {t},
        # so the small meet of a and b is 0 and the big one is x
        actual = {"s": {"I", "a"}, "t": {"I", "a", "b"}, "u": {"I", "b"}}
        small = StatePropertySystem({"s", "t", "u"}, {"I", "a", "b", "0"}, actual)
        big = StatePropertySystem(
            {"s", "t", "u"}, {"I", "a", "b", "x", "0"}, {**actual, "t": {"I", "a", "b", "x"}}
        )
        mor = SpsMorphism(m={p: p for p in big.states}, n={a: a for a in small.properties})
        diag = verify_sps_morphism(small, big, mor)
        assert diag.failures == ["morphism.meet_preserved: n('a' meet 'b')"]
        assert [name for name, ok in diag.checks.items() if not ok] == ["morphism.meet_preserved"]

    def test_a_map_missing_keys_of_mixed_types_is_refused(self):
        sps = StatePropertySystem({"s"}, {1, "a", "b"}, {"s": {1, "a", "b"}})
        identity = {"s": "s"}
        with pytest.raises(ContractError) as err:
            verify_sps_morphism(sps, sps, SpsMorphism(m=identity, n={"b": "b"}))
        assert str(err.value) == "the property map is not total; missing [1, 'a']"
        with pytest.raises(ContractError) as err:
            verify_sps_morphism(sps, sps, SpsMorphism(m=identity, n={1: 1}))
        assert str(err.value) == "the property map is not total; missing ['a', 'b']"

    def test_discontinuous_map_rejected(self):
        from soe.closure import ClosureSystem

        ground_small = frozenset({"u", "v"})
        small_sys = ClosureSystem(ground_small, {frozenset(), frozenset({"u"}), ground_small})
        ground_big = frozenset({"W1", "W2"})
        indiscrete_big = ClosureSystem(ground_big, {frozenset(), ground_big})
        # the preimage of the closed set {u} is {W1}, not closed in the big space
        with pytest.raises(ContractError):
            morphism_from_continuous_map(small_sys, indiscrete_big, {"W1": "u", "W2": "v"})

    def test_a_map_missing_a_big_point_is_refused(self):
        from soe.closure import ClosureSystem

        small = ClosureSystem(frozenset({"u"}), {frozenset(), frozenset({"u"})})
        big = ClosureSystem(frozenset({"p", "q"}), {frozenset(), frozenset({"p", "q"})})
        with pytest.raises(ContractError, match=r"^the state map is not total; missing \['q'\]$"):
            morphism_from_continuous_map(small, big, {"p": "u"})


class TestPreimageContinuity:
    def test_identity(self, worked):
        diag = preimage_continuity(worked, worked, SubEntityWitness.identity(worked))
        assert diag.passed, diag.failures

    def test_relabeling(self, worked):
        big, witness = relabeled_copy(worked)
        diag = preimage_continuity(worked, big, witness)
        assert diag.passed, diag.failures

    def test_unconditional_after_core_pass(self):
        rng = random.Random(72)
        for _ in range(10):
            entity = random_entity(rng, 3, 3, 4)
            big, witness = relabeled_copy(entity)
            assert preimage_continuity(entity, big, witness).passed

    def test_requires_verified_witness(self, worked):
        big, witness = relabeled_copy(worked)
        bad_l = dict(witness.l)
        bad_l["x1"] = bad_l["x2"]
        with pytest.raises(ContractError):
            preimage_continuity(worked, big, SubEntityWitness(witness.m, witness.n, bad_l))


class TestProbabilisticSubEntity:
    def test_d_classical_pair(self, dpair):
        big, witness = relabeled_copy(dpair)
        small_measure = d_classical_measure(dpair)
        big_measure = d_classical_measure(big)
        diag = verify_probabilistic_sub_entity(
            ProbabilisticEntity(dpair, (small_measure,)),
            ProbabilisticEntity(big, (big_measure,)),
            witness,
            ProbabilityCorrespondence([(small_measure, big_measure)]),
        )
        assert diag.passed, diag.failures

    def test_wrong_transport_fails(self, dpair):
        big, witness = relabeled_copy(dpair)
        small_measure = d_classical_measure(dpair)
        from soe.probability import ProbabilityTable

        swapped = {}
        for (e, p), cell in big.cells():
            x = next(iter(cell))
            swapped[(e, p, x)] = 0.25 if p == "S.s" else 1.0
        bad_big = ProbabilityTable(swapped)
        diag = verify_probabilistic_sub_entity(
            ProbabilisticEntity(dpair, (small_measure,)),
            ProbabilisticEntity(big, (bad_big,)),
            witness,
            ProbabilityCorrespondence([(small_measure, bad_big)]),
        )
        assert not diag.checks["k.transport_identity"]

    def test_transport_witnesses_name_each_failing_triple(self):
        # each witness is built when its row fails, from that row's values
        entity = Entity(
            {"p", "q"},
            {"e", "f"},
            {("e", "p"): {"x", "y"}, ("e", "q"): {"x"}, ("f", "p"): {"z"}, ("f", "q"): {"z", "w"}},
        )
        mu = ProbabilityTable({("e", "p", "x"): 0.25, ("e", "p", "y"): 0.75, ("e", "q", "x"): 1,
                               ("f", "p", "z"): 1, ("f", "q", "z"): 0.5, ("f", "q", "w"): 0.5})
        nu = ProbabilityTable({("e", "p", "x"): 0.5, ("e", "p", "y"): 0.5, ("e", "q", "x"): 1,
                               ("f", "p", "z"): 1, ("f", "q", "z"): 0.1, ("f", "q", "w"): 0.9})
        diag = verify_probabilistic_sub_entity(
            ProbabilisticEntity(entity, (mu,)),
            ProbabilisticEntity(entity, (nu,)),
            SubEntityWitness.identity(entity),
            ProbabilityCorrespondence([(mu, nu)]),
        )
        assert diag.failures == [
            "k.transport_identity: pair 0, (e, p, x): 0.25 vs 0.5",
            "k.transport_identity: pair 0, (e, p, y): 0.75 vs 0.5",
            "k.transport_identity: pair 0, (f, q, w): 0.5 vs 0.9",
            "k.transport_identity: pair 0, (f, q, z): 0.5 vs 0.1",
        ]

    def test_incomplete_correspondence_rejected(self, dpair):
        big, witness = relabeled_copy(dpair)
        small_measure = d_classical_measure(dpair)
        with pytest.raises(ContractError):
            verify_probabilistic_sub_entity(
                ProbabilisticEntity(dpair, (small_measure,)),
                ProbabilisticEntity(big, (d_classical_measure(big),)),
                witness,
                ProbabilityCorrespondence([]),
            )

    def test_non_injective_correspondence_fails(self, dpair):
        big, witness = relabeled_copy(dpair)
        big_measure = d_classical_measure(big)
        mu1 = d_classical_measure(dpair)
        # a second, distinct small measure transported onto the same image
        from soe.probability import ProbabilityTable

        mu2 = ProbabilityTable(
            {**dict(mu1.entries), ("h", "s", "up"): 0.5, ("h", "s", "down"): 0.5}
        )
        diag = verify_probabilistic_sub_entity(
            ProbabilisticEntity(dpair, (mu1, mu2)),
            ProbabilisticEntity(big, (big_measure,)),
            witness,
            ProbabilityCorrespondence([(mu1, big_measure), (mu2, big_measure)]),
        )
        assert not diag.checks["k.injective"]


def per_triple_transport(small, big, w, k, tol):
    """The transport checks of `verify_probabilistic_sub_entity` read one
    triple at a time, every (pair, experiment, big state, outcome) in order:
    the reference of the reads grouped by couple."""
    diag = Diagnostics()
    images = [mu_big for _, mu_big in k.pairs]
    diag.record(
        "k.injective",
        all(images[i] != images[j] for i in range(len(images)) for j in range(i + 1, len(images))),
        "two measures transported to the same image",
    )
    diag.checks.setdefault("k.transport_identity", True)
    for index, (mu, mu_big) in enumerate(k.pairs):
        for e in sorted(small.entity.experiments):
            for p_big in sorted(big.entity.states):
                for x in sorted(small.entity.outcomes):
                    lhs, rhs = mu(e, w.m[p_big], x), mu_big(w.n[e], p_big, w.l[x])
                    if not abs(lhs - rhs) <= tol:
                        diag.record("k.transport_identity", False, f"pair {index}, ({e}, {p_big}, {x}): {lhs:.12g} vs {rhs:.12g}")
    return diag


def _transport(small, big, w, pairs, tol):
    """(checks, failures, overflow) of the grouped check and of the per-triple reference."""
    small, big = ProbabilisticEntity(small, tuple(mu for mu, _ in pairs)), ProbabilisticEntity(big, tuple(nu for _, nu in pairs))
    k = ProbabilityCorrespondence(pairs)
    return [(d.checks, d.failures, d._overflow)
            for d in (verify_probabilistic_sub_entity(small, big, w, k, tol), per_triple_transport(small, big, w, k, tol))]


class TestTransportTolerance:
    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_a_tolerance_no_zero_meets_fails_every_triple_in_order(self, tol):
        # 0 against 0 fails too, so all 2 x 2 x 4 triples fail, stored or not
        entity = Entity(
            {"p", "q"},
            {"e", "f"},
            {("e", "p"): {"x", "y"}, ("e", "q"): {"x"}, ("f", "p"): {"z"}, ("f", "q"): {"z", "w"}},
        )
        mu = ProbabilityTable({("e", "p", "x"): 0.25, ("e", "p", "y"): 0.75, ("e", "q", "x"): 1,
                               ("f", "p", "z"): 1, ("f", "q", "z"): 0.5, ("f", "q", "w"): 0.5})
        grouped, reference = _transport(entity, entity, SubEntityWitness.identity(entity), [(mu, mu)], tol)
        assert grouped == reference
        checks, failures, overflow = grouped
        assert checks == {"k.injective": True, "k.transport_identity": False}
        assert len(failures) + overflow == 16
        assert failures[:3] == [
            "k.transport_identity: pair 0, (e, p, w): 0 vs 0",
            "k.transport_identity: pair 0, (e, p, x): 0.25 vs 0.25",
            "k.transport_identity: pair 0, (e, p, y): 0.75 vs 0.75",
        ]


@st.composite
def transported_measures(draw):
    """A small entity, a big one whose states each copy a small state once
    or twice, and one or two pairs of measures: each big measure is its small
    one transported, then overwritten on some triples. Both sides hold stray
    entries: impossible outcomes, outcomes outside the entity or outside l's
    image, and unknown experiments."""
    states = [f"p{i}" for i in range(draw(st.integers(1, 3)))]
    experiments = [f"e{i}" for i in range(draw(st.integers(1, 3)))]
    pool = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    cell = st.frozensets(st.sampled_from(pool), min_size=1)
    small = Entity(states, experiments, {(e, p): draw(cell) for e in experiments for p in states})
    copies = draw(st.integers(1, 2))
    m = {f"S.{p}.{c}": p for p in states for c in range(copies)}
    n = {e: f"E.{e}" for e in experiments}
    l = {x: f"X.{x}" for x in small.outcomes}
    big = Entity(m, n.values(), {(n[e], P): {l[x] for x in small.outcome_set(e, p)} for P, p in m.items() for e in experiments})
    value = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    small_triples = st.tuples(st.sampled_from(experiments + ["e?"]), st.sampled_from(states), st.sampled_from(pool + ["x?"]))
    big_triples = st.tuples(st.sampled_from([*n.values(), "E.?"]), st.sampled_from(sorted(m)), st.sampled_from([*l.values(), "X.?"]))
    pairs = []
    for _ in range(draw(st.integers(1, 2))):
        mu = draw(st.dictionaries(small_triples, value, max_size=10))
        nu = {(n[e], P, l[x]): v for (e, p, x), v in mu.items() if e in n and x in l for P in m if m[P] == p}
        nu.update(draw(st.dictionaries(big_triples, value, max_size=6)))
        pairs.append((ProbabilityTable(mu), ProbabilityTable(nu)))
    assume(len({mu for mu, _ in pairs}) == len(pairs))
    return small, big, SubEntityWitness(m, n, l), pairs


@settings(max_examples=150, deadline=None)
@given(transported_measures(), st.sampled_from([1e-9, 0.0]))
def test_grouped_transport_matches_the_per_triple_reference(drawn, tol):
    grouped, reference = _transport(*drawn, tol)
    assert grouped == reference
