"""Property tests over random small entities and mixtures.

The mixed relations are checked against their definitions written out from
`mixed_outcome_set`, every witness of `classify` and of `satisfies_T0` against
the least violating pair found by enumerating all pairs (and of `satisfies_T1`
against the least violating point), `indistinguishable_pair` against the least
pair of experiments not orthogonal in the total mixed state, the closure engine, the eigen systems and
the ortho spaces against the brute-force oracles and the relation engine, the
mask engine of the closure layer (the state trace of every constructor's
couple systems included) against the frozenset definitions and its bit
codec against its own inverse, the full mixed entity against its cell-by-cell
definition, `is_supremum` against its defining biconditional, the lattice
queries of state-property systems against their scans, kept-mask
state-property systems and the Cartan check decided on their coatoms against
listed families, the systems `closure_to_sps` builds
against their closure systems, the sampled closure-axiom checks of `soe
verify` against their frozenset form,
and the text format against its emitter and against arbitrary text.
"""

import random
from itertools import combinations, product
from unittest.mock import patch

import pytest
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
    satisfies_T0,
    satisfies_T1,
)
from soe.cli import _closure_checks, _fmt_item, _fmt_member, _sampled_axiom_checks
from soe.closure import (
    ClosureSystem,
    OrthoSpace,
    _Order,
    eig_central,
    eig_experiments,
    eig_states,
    eigen_closure_system,
    entity_ortho_space,
    intersection_closure,
    orth_complement,
    ortho_closure_system,
    state_trace,
)
from soe.diagnostics import Diagnostics
from soe.entity import (
    Entity,
    RelationKind,
    check_identifier,
    equivalent,
    first_equivalent_pair,
    implies,
    natural_order,
    orthogonal,
    relation_report,
    relation_views,
    view_implies,
)
from soe.errors import ContractError, EntityValidationError, ParseError, SoeError
from soe.formats import emit_entity, parse_entity, parse_witness
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
from soe.probability import ProbabilityTable
from soe.statprop import (
    StatePropertySystem,
    _prop_key,
    closure_to_sps,
    global_testable_sps,
    indistinguishable_pair,
    is_cartan_family,
    is_distinguishable,
    sps_to_closure,
    testable_sps,
    validate_sps,
)

from oracles import (
    brute_eig_central_family,
    brute_eig_experiment_family,
    brute_eig_state_family,
    brute_intersection_closure,
    brute_ortho_closed_sets,
    brute_smallest_member,
)

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def entities(draw, side=4, max_outcomes=5):
    states = [f"p{i}" for i in range(draw(st.integers(1, side)))]
    experiments = [f"e{i}" for i in range(draw(st.integers(1, side)))]
    outcomes = [f"x{i}" for i in range(draw(st.integers(1, max_outcomes)))]
    cell = st.frozensets(st.sampled_from(outcomes), min_size=1)
    return Entity(states, experiments, {(e, p): draw(cell) for e in experiments for p in states})


def _is_identifier(token) -> bool:
    try:
        check_identifier("any", token)
    except EntityValidationError:
        return False
    return True


IDENTIFIERS = st.text(min_size=1, max_size=3).filter(_is_identifier)


@st.composite
def named_entities(draw):
    """Entities over arbitrary identifiers the identifier rule accepts."""
    states = draw(st.lists(IDENTIFIERS, min_size=1, max_size=3, unique=True))
    experiments = draw(st.lists(IDENTIFIERS, min_size=1, max_size=3, unique=True))
    outcomes = draw(st.lists(IDENTIFIERS, min_size=1, max_size=4, unique=True))
    cell = st.frozensets(st.sampled_from(outcomes), min_size=1)
    return Entity(states, experiments, {(e, p): draw(cell) for e in experiments for p in states})


@st.composite
def atomic_entities(draw, side=4):
    """Entities whose couples hold distinct 2-subsets of seven outcomes: no
    cell lies inside another, so no item implies a distinct one and every
    atomicity search scans all its items without finding a witness."""
    states = [f"p{i}" for i in range(draw(st.integers(1, side)))]
    experiments = [f"e{i}" for i in range(draw(st.integers(1, side)))]
    cells = draw(st.permutations(list(combinations([f"x{i}" for i in range(7)], 2))))
    couples = [(e, p) for e in experiments for p in states]
    return Entity(states, experiments, dict(zip(couples, map(frozenset, cells))))


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


@SETTINGS
@given(entities(), st.data())
def test_plain_relations_agree_with_relation_views(entity, data):
    """`implies`, `orthogonal` and `equivalent` read two views as the relation
    engine does, for all seven kinds, on items drawn from each kind's pool."""
    e = data.draw(st.sampled_from(sorted(entity.experiments)))
    p = data.draw(st.sampled_from(sorted(entity.states)))
    for kind, pool in (
        (RelationKind.state_global(), entity.states),
        (RelationKind.state_for(e), entity.states),
        (RelationKind.experiment_global(), entity.experiments),
        (RelationKind.experiment_for(p), entity.experiments),
        (RelationKind.central(), entity.couples()),
        (RelationKind.outcome_global(), entity.outcomes),
        (RelationKind.outcome_for(e, p), entity.outcomes),
    ):
        a, b = (data.draw(st.sampled_from(sorted(pool))) for _ in range(2))
        view, orthogonal_views = relation_views(entity, kind)
        below, above = view_implies(view(a), view(b)), view_implies(view(b), view(a))
        assert implies(entity, kind, a, b) == below
        assert orthogonal(entity, kind, a, b) == orthogonal_views(view(a), view(b))
        assert equivalent(entity, kind, a, b) == (below and above)


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
@given(st.one_of(entities(), named_entities(), atomic_entities()))
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


@SETTINGS
@given(st.one_of(entities(), named_entities()))
def test_indistinguishable_pair_is_the_least_pair_not_orthogonal_in_the_total_mixed_state(entity):
    total = RelationKind.experiment_for(MixedState(entity.states))
    expected = _least(
        (e, f)
        for e, f in combinations(sorted(entity.experiments), 2)
        if not mixed_orthogonal(entity, total, MixedExperiment({e}), MixedExperiment({f}))
    )
    assert indistinguishable_pair(entity) == expected


@SETTINGS
@given(entities(side=3), st.data())
def test_ortho_spaces_match_the_relation_engine(entity, data):
    e = data.draw(st.sampled_from(sorted(entity.experiments)))
    p = data.draw(st.sampled_from(sorted(entity.states)))
    for on, scope, kind in (
        ("states", None, RelationKind.state_global()),
        ("states", e, RelationKind.state_for(e)),
        ("experiments", None, RelationKind.experiment_global()),
        ("experiments", p, RelationKind.experiment_for(p)),
        ("central", None, RelationKind.central()),
        ("outcomes", None, RelationKind.outcome_global()),
        ("outcomes", (e, p), RelationKind.outcome_for(e, p)),
    ):
        space = entity_ortho_space(entity, on, scope)
        orth = lambda a, b: orthogonal(entity, kind, a, b)  # noqa: E731
        assert all(space.orthogonal(a, b) == orth(a, b) for a in space.ground for b in space.ground), kind
        assert ortho_closure_system(space).members == brute_ortho_closed_sets(space.ground, orth), kind


@SETTINGS
@given(entities(side=3))
def test_eigen_generators_are_the_coatoms_and_members_the_brute_families(entity):
    def coatoms(eig, scope, full):
        return {eig(entity, scope, full - {x}) for x in full}

    states, experiments = sorted(entity.states), sorted(entity.experiments)
    state_coatoms = {e: coatoms(eig_states, e, entity.experiment_outcomes(e)) for e in experiments}
    experiment_coatoms = {p: coatoms(eig_experiments, p, entity.state_outcomes(p)) for p in states}
    state_families = {e: brute_eig_state_family(entity, e) for e in experiments}
    experiment_families = {p: brute_eig_experiment_family(entity, p) for p in states}
    cases = [
        ("central", None, coatoms(lambda entity, _, A: eig_central(entity, A), None, entity.outcomes),
         brute_eig_central_family(entity)),
        ("states", None, set().union(*state_coatoms.values()),
         brute_intersection_closure(entity.states, list(state_families.values()))),
        ("experiments", None, set().union(*experiment_coatoms.values()),
         brute_intersection_closure(entity.experiments, list(experiment_families.values()))),
    ]
    cases += [("states", e, state_coatoms[e], state_families[e]) for e in experiments]
    cases += [("experiments", p, experiment_coatoms[p], experiment_families[p]) for p in states]
    for on, scope, generators, members in cases:
        system = eigen_closure_system(entity, on, scope)
        assert system.generators == generators, (on, scope)
        assert system.members == members, (on, scope)


@SETTINGS
@given(entities(), st.data())
def test_testable_systems_match_the_definitions(entity, data):
    """Every experiment's testable system: the properties are the brute eigen
    family, a state's actual properties the members holding it, a label the
    union of its states' cells, a coatom eig(O - {x}), and a testable
    property eig(A)."""
    for e in sorted(entity.experiments):
        sps = testable_sps(entity, e)
        full = entity.experiment_outcomes(e)
        members = brute_eig_state_family(entity, e)
        assert sps.states == entity.states
        assert sps.properties == members
        assert sps.actual == {p: frozenset(F for F in members if p in F) for p in entity.states}
        assert sps.labels == {
            F: frozenset().union(*(entity.outcome_set(e, p) for p in F)) for F in members
        }
        for x in full:
            assert sps.testable_property(full - {x}) == eig_states(entity, e, full - {x})
        for _ in range(3):
            A = data.draw(st.frozensets(st.sampled_from(sorted(full))))
            assert sps.testable_property(A) == eig_states(entity, e, A)


def _scopes(entity):
    """Every eigen and ortho scope of an entity: (on, scoped_to, relation kind)."""
    scopes = [("states", None, RelationKind.state_global()), ("experiments", None, RelationKind.experiment_global())]
    scopes += [("states", e, RelationKind.state_for(e)) for e in sorted(entity.experiments)]
    scopes += [("experiments", p, RelationKind.experiment_for(p)) for p in sorted(entity.states)]
    return scopes + [("central", None, RelationKind.central())]


@SETTINGS
@given(entities(side=3), st.data())
def test_mask_coatoms_and_perps_match_the_definitions(entity, data):
    """For every scope, the coatoms read from the holder index are the
    eig_states / eig_experiments / eig_central coatoms, each perp is the set
    of points orthogonal to its point, and orth_complement and closure_of cut
    the ground by them as the definitions say."""
    eig = {
        "states": lambda s, A: eig_states(entity, s, A),
        "experiments": lambda s, A: eig_experiments(entity, s, A),
        "central": lambda s, A: eig_central(entity, A),
    }
    full = {
        "states": entity.experiment_outcomes,
        "experiments": entity.state_outcomes,
        "central": lambda s: entity.outcomes,
    }
    rows = {"states": sorted(entity.experiments), "experiments": sorted(entity.states), "central": [None]}
    for on, scope, kind in _scopes(entity):
        coatoms = {eig[on](s, full[on](s) - {x}) for s in ([scope] if scope else rows[on]) for x in full[on](s)}
        system = eigen_closure_system(entity, on, scope)
        assert system.generators == coatoms, (on, scope)
        space = entity_ortho_space(entity, on, scope)
        ground = sorted(space.ground)
        for a in ground:
            assert space.perp[a] == frozenset(b for b in ground if orthogonal(entity, kind, a, b)), (on, scope, a)
        for _ in range(2):
            K = data.draw(st.frozensets(st.sampled_from(ground)))
            assert orth_complement(space, K) == frozenset(
                b for b in ground if all(orthogonal(entity, kind, a, b) for a in K)
            ), (on, scope, K)
            assert system.closure_of(K) == system.ground.intersection(*(g for g in coatoms if K <= g))
            assert system.is_closed(K) == (system.closure_of(K) == K)


@SETTINGS
@given(entities(), st.data())
def test_derived_fields_equal_their_eager_forms(entity, data):
    """A testable system's derived actual and labels, and the decoded
    generators and perps, equal the forms built eagerly from frozensets
    through the public constructors, and answer the same checks; its derived
    coatoms are eig(O - {x}); the public constructor's check accepts every
    entity-built ortho space."""
    couple = data.draw(st.sampled_from(entity.couples()))
    scopes = [(on, scope) for on, scope, _ in _scopes(entity)] + [("outcomes", None), ("outcomes", couple)]
    on, scope = data.draw(st.sampled_from(scopes))
    space = entity_ortho_space(entity, on, scope)
    eager_space = OrthoSpace(space.ground, {a: set(p) for a, p in space.perp.items()})
    assert eager_space.perp == space.perp
    system = ortho_closure_system(space)
    eager = ClosureSystem.generated(space.ground, list(eager_space.perp.values()))
    assert system.generators == eager.generators == frozenset(space.perp.values())
    assert system == eager and eager == system
    for e in sorted(entity.experiments):
        sps = testable_sps(entity, e)
        actual = {p: {F for F in sps.properties if p in F} for p in entity.states}
        labels = {F: frozenset().union(*(entity.outcome_set(e, p) for p in F)) for F in sps.properties}
        full = entity.experiment_outcomes(e)
        built = StatePropertySystem(entity.states, sps.properties, actual, labels)
        assert (sps.actual, sps.labels) == (built.actual, built.labels)
        for x in full:
            assert sps.testable_property(full - {x}) == eig_states(entity, e, full - {x})
        assert sps == built
        assert validate_sps(sps) == validate_sps(built)
        for scoped in (eigen_closure_system(entity, "states", e), eigen_closure_system(entity, "states")):
            assert is_cartan_family(sps, scoped) == is_cartan_family(built, scoped)


@SETTINGS
@given(entities())
def test_cartan_check_on_generators_is_equality_of_the_listed_families(entity):
    """For every experiment e and every state eigen system, that of any
    experiment f or the global one, the Cartan check of e's testable system,
    decided on its coatoms without listing it, is the equality of its listed
    Cartan family with the system; so is the check of the same system rebuilt
    through the public constructor."""
    systems = [eigen_closure_system(entity, "states", f) for f in sorted(entity.experiments)]
    systems.append(eigen_closure_system(entity, "states"))
    for e in sorted(entity.experiments):
        listed = testable_sps(entity, e)
        rebuilt = StatePropertySystem(entity.states, listed.properties, listed.actual, listed.labels)
        for system in systems:
            kept = testable_sps(entity, e)
            assert is_cartan_family(kept, system) == (sps_to_closure(listed) == system)
            assert kept._found is None
            assert is_cartan_family(rebuilt, system) == (sps_to_closure(rebuilt) == system)


@st.composite
def ortho_inputs(draw):
    """A string ground of up to 5 points and a perp map whose pairs start in
    the ground and may end at y or z outside it; by chance the pairs inside
    are symmetrized, the others dropped, and one more key, perhaps y or z,
    is given an empty orthocomplement."""
    ground = draw(st.frozensets(st.sampled_from("abcde"), max_size=5))
    points = st.sampled_from(sorted(ground) + ["y", "z"])
    pairs = draw(st.sets(st.tuples(st.sampled_from(sorted(ground)), points), max_size=8)) if ground else set()
    if draw(st.booleans()):
        pairs |= {(b, a) for a, b in pairs if b in ground}
    if draw(st.booleans()):
        pairs = {(a, b) for a, b in pairs if b in ground and a != b}
    perp = {a: set() for a in draw(st.sets(points, max_size=1))}
    for a, b in pairs:
        perp.setdefault(a, set()).add(b)
    return ground, perp


def _first_ortho_fault(ground, perp):
    """The refusal OrthoSpace(ground, perp) documents, by brute force: the
    first class of fault in the order outside point, outside pair,
    self-orthogonal point, one-sided pair, at its least point and partner."""
    given = lambda a: perp.get(a, set())  # noqa: E731
    for a in sorted(set(perp) - ground):
        return f"orthocomplement given for {a!r}, which lies outside the ground set"
    for a in sorted(ground):
        for b in sorted(given(a) - ground):
            return f"orthogonal pair ({a!r}, {b!r}) lies outside the ground set"
    for a in sorted(ground):
        if a in given(a):
            return f"orthogonality must be anti-reflexive; got ({a!r}, {a!r})"
    for a in sorted(ground):
        for b in sorted(given(a)):
            if a not in given(b):
                return f"orthogonality must be symmetric; ({b!r}, {a!r}) missing"
    return None


@SETTINGS
@given(ortho_inputs())
def test_ortho_space_accepts_exactly_the_symmetric_antireflexive_relations(drawn):
    ground, perp = drawn
    related = {(a, b) for a, bs in perp.items() for b in bs}
    lawful = (
        set(perp) <= ground
        and all(a in ground and b in ground for a, b in related)
        and all((a, a) not in related for a in ground)
        and all(((a, b) in related) == ((b, a) in related) for a in ground for b in ground)
    )
    fault = _first_ortho_fault(ground, perp)
    assert lawful == (fault is None)
    if fault is not None:
        with pytest.raises(ContractError) as refused:
            OrthoSpace(ground, perp)
        assert str(refused.value) == fault
        return
    space = OrthoSpace(ground, perp)
    assert space.perp == {a: frozenset(perp.get(a, ())) for a in ground}
    assert all(space.orthogonal(a, b) == ((a, b) in related) for a in ground for b in ground)
    assert ortho_closure_system(space).generators == frozenset(space.perp.values())


# property tokens of mixed types; each pair of TWINS ties under _prop_key
TWINS = {1: "1", None: "None", frozenset({1}): frozenset({"1"})}
PROPERTY_TOKENS = [*TWINS, *TWINS.values(), 2, "a", (1,), frozenset(), frozenset("ab")]


@st.composite
def state_property_systems(draw):
    """Up to four states and six properties with random images, so systems
    may be non-identified or non-lattices. With `twins`, each drawn token's
    twin gets the same image. With `closed`, every intersection of the images
    and the full state set are added, each as a property named by its image
    (unless that token is already taken)."""
    states = draw(st.lists(st.sampled_from("stuv"), max_size=4, unique=True))
    image = st.frozensets(st.sampled_from(states)) if states else st.just(frozenset())
    images = draw(st.dictionaries(st.sampled_from(PROPERTY_TOKENS), image, max_size=6))
    if draw(st.booleans()):
        images.update({TWINS[a]: F for a, F in images.items() if a in TWINS})
    if draw(st.booleans()):
        for F in intersection_closure(states, images.values()):
            images.setdefault(F, F)
    actual = {p: {a for a, F in images.items() if p in F} for p in states}
    return StatePropertySystem(states, images, actual)


def _scan_queries(sps):
    """The scan definitions of top, bottom, meet and join over the
    ordering-set order, each the least of its candidates by _prop_key."""
    kappa = {a: frozenset(p for p in sps.states if a in sps.actual[p]) for a in sps.properties}

    def leq(a, b):
        return kappa[a] <= kappa[b]

    def canonical(candidates):
        return min(candidates, key=_prop_key)

    def top():
        candidates = [a for a in sps.properties if kappa[a] == sps.states]
        if not candidates:
            raise ContractError("no maximal property is actual in every state")
        return canonical(candidates)

    def bottom():
        candidates = [a for a in sps.properties if not kappa[a]]
        if not candidates:
            raise ContractError("no minimal property is potential in every state")
        return canonical(candidates)

    def meet(props):
        lower = [c for c in sps.properties if all(leq(c, a) for a in props)]
        greatest = [m for m in lower if all(leq(c, m) for c in lower)]
        if not greatest:
            raise ContractError("family has no meet in this lattice")
        return canonical(greatest)

    def join(props):
        upper = [c for c in sps.properties if all(leq(a, c) for a in props)]
        least = [j for j in upper if all(leq(j, c) for c in upper)]
        if not least:
            raise ContractError("family has no join in this lattice")
        return canonical(least)

    return top, bottom, meet, join


@SETTINGS
@given(state_property_systems(), st.data())
def test_lattice_queries_match_the_scans(sps, data):
    """top, bottom, meet and join return the property the scans return, or
    raise the same error, on families of up to three properties, the empty
    family included."""

    def outcome(query, *args):
        try:
            result = query(*args)
        except SoeError as err:
            return type(err), str(err)
        return type(result), result

    top, bottom, meet, join = _scan_queries(sps)
    assert outcome(lambda: sps.top) == outcome(top)
    assert outcome(lambda: sps.bottom) == outcome(bottom)
    families = st.lists(st.sampled_from(sorted(sps.properties, key=_prop_key)), max_size=3)
    for _ in range(4):
        props = data.draw(families) if sps.properties else []
        assert outcome(sps.meet, props) == outcome(meet, props)
        assert outcome(sps.join, props) == outcome(join, props)


def _validate_sps_state_by_state(sps):
    """validate_sps as it checked xi.meet_stability before: one record per
    state of every pair, stopping at a pair's first failing state."""
    diag = Diagnostics()
    try:
        top = sps.top
        diag.record("lattice.top", True)
        diag.record("lattice.top_actual_everywhere", all(top in sps.actual[p] for p in sps.states))
    except ContractError as err:
        diag.record("lattice.top", False, str(err))
    try:
        bottom = sps.bottom
        diag.record("lattice.bottom", True)
        diag.record("lattice.bottom_actual_nowhere", not any(bottom in sps.actual[p] for p in sps.states))
    except ContractError as err:
        diag.record("lattice.bottom", False, str(err))
    props = sorted(sps.properties, key=_prop_key)
    states = sorted(sps.states)
    meets_ok = True
    for i, a in enumerate(props):
        for b in props[i:]:
            try:
                m = sps.meet([a, b])
            except ContractError:
                diag.record("lattice.binary_meets", False, f"no meet of {a!r} and {b!r}")
                meets_ok = False
                break
            for p in states:
                both = a in sps.actual[p] and b in sps.actual[p]
                if not diag.record("xi.meet_stability", both == (m in sps.actual[p]),
                                   f"state {p!r}, properties {a!r}, {b!r}"):
                    break
        if not meets_ok:
            break
    diag.checks.setdefault("lattice.binary_meets", True)
    diag.checks.setdefault("xi.meet_stability", True)
    equivalent = first_equivalent_pair(props, sps.cartan)
    if equivalent is not None:
        a, b = equivalent
        diag.record("lattice.identified", False, f"{a!r} and {b!r} are equivalent but distinct")
    diag.checks.setdefault("lattice.identified", True)
    return diag


@SETTINGS
@given(state_property_systems())
def test_meet_stability_once_per_pair_matches_the_state_loop(sps):
    """validate_sps checks xi.meet_stability once per pair of properties; its
    checks (in order), failures and overflow equal those of the loop over
    states, on systems that are not meet-stable, not lattices or not
    identified."""
    got, want = validate_sps(sps), _validate_sps_state_by_state(sps)
    assert list(got.checks.items()) == list(want.checks.items())
    assert (got.failures, got._overflow) == (want.failures, want._overflow)


def test_meet_stability_overflow_matches_the_state_loop():
    """The pairs of two-state properties sharing one state have the empty
    meet, which is not their intersection: 12 failures, 2 beyond the cap."""
    states = "stuv"
    images = [frozenset(pair) for pair in product(states, repeat=2) if pair[0] < pair[1]]
    images += [frozenset(), frozenset(states)]
    sps = StatePropertySystem(states, images, {p: {F for F in images if p in F} for p in states})
    got, want = validate_sps(sps), _validate_sps_state_by_state(sps)
    assert got._overflow == 2
    assert list(got.checks.items()) == list(want.checks.items())
    assert (got.failures, got._overflow) == (want.failures, want._overflow)


def test_meet_stability_names_the_least_state_where_the_meet_differs():
    """a and b share the states t and u, but their meet is the bottom."""
    actual = {"s": {"1", "a"}, "t": {"1", "a", "b"}, "u": {"1", "a", "b"}, "v": {"1", "b"}}
    sps = StatePropertySystem("stuv", {"0", "1", "a", "b"}, actual)
    assert validate_sps(sps).failures == ["xi.meet_stability: state 't', properties 'a', 'b'"]
    assert validate_sps(sps) == _validate_sps_state_by_state(sps)


NAMES = st.text(min_size=1, max_size=3)


@st.composite
def systems(draw, grounds=None):
    """A ground of strings or of (experiment, state) couples with up to six
    random generators; `grounds`, if given, fixes the ground."""
    if grounds is None:
        names = st.frozensets(NAMES, min_size=0, max_size=6)
        couples = st.frozensets(st.tuples(NAMES, NAMES), min_size=0, max_size=6)
        grounds = draw(st.one_of(names, couples))
    pool = st.sampled_from(sorted(grounds)) if grounds else st.nothing()
    generators = draw(st.lists(st.frozensets(pool), max_size=6))
    return grounds, generators


def _generated(ground, generators):
    """The generated system, with the empty set added to generators whose
    intersection is not empty (`generated` refuses those), and its generators."""
    if frozenset(ground).intersection(*generators):
        with pytest.raises(ContractError, match="must contain the empty set"):
            ClosureSystem.generated(ground, generators)
        generators = generators + [frozenset()]
    return ClosureSystem.generated(ground, generators), generators


@SETTINGS
@given(systems(), st.data())
def test_generated_systems_match_the_oracles(drawn, data):
    ground = drawn[0]
    system, generators = _generated(*drawn)
    members = brute_intersection_closure(ground, [generators])
    assert system.members == members
    assert system == ClosureSystem(ground, members)
    for _ in range(3):
        K = data.draw(st.frozensets(st.sampled_from(sorted(ground)))) if ground else frozenset()
        assert system.closure_of(K) == brute_smallest_member(members, K)
        assert system.is_closed(K) == (K in members)


@SETTINGS
@given(systems(), st.data())
def test_intersection_closure_matches_the_oracle(drawn, data):
    """Also on lists with repeated generators, empty generators or none."""
    ground, generators = drawn
    repeats = data.draw(st.lists(st.sampled_from(generators), max_size=3)) if generators else []
    empties = data.draw(st.lists(st.just(frozenset()), max_size=1))
    generators = data.draw(st.permutations(generators + repeats + empties))
    assert intersection_closure(ground, generators) == brute_intersection_closure(ground, [generators])


@st.composite
def closure_families(draw):
    """An eigen or ortho system of a random entity, over states, experiments
    or couples, or a listed `ClosureSystem(ground, members)` over strings,
    couples or ints."""
    kind = draw(st.sampled_from(["eigen", "ortho", "listed"]))
    if kind == "listed":
        ints = st.frozensets(st.integers(-3, 9), max_size=6)
        ground, generators = draw(st.one_of(systems(), ints.flatmap(systems)))
        return ClosureSystem(ground, brute_intersection_closure(ground, [generators + [frozenset()]]))
    entity = draw(entities(side=3))
    on, scope, _ = draw(st.sampled_from(_scopes(entity)))
    if kind == "eigen":
        return eigen_closure_system(entity, on, scope)
    return ortho_closure_system(entity_ortho_space(entity, on, scope))


@SETTINGS
@given(closure_families())
def test_closure_to_sps_keeps_the_members_of_its_system(system):
    """The properties are the members, a state's actual properties the
    members holding it, no property is labeled or testable, and the
    Cartan images are the system's family."""
    sps = closure_to_sps(system.ground, system)
    members = system.members
    assert sps.properties == members
    assert sps.actual == {p: frozenset(F for F in members if p in F) for p in system.ground}
    assert sps.labels == {}
    with pytest.raises(ContractError, match="not built from testable properties"):
        sps.testable_property(frozenset())
    assert is_cartan_family(sps, system)


@SETTINGS
@given(entities())
def test_testable_properties_are_the_listed_eigen_family(entity):
    for e in sorted(entity.experiments):
        generators = eigen_closure_system(entity, "states", e).generators
        assert testable_sps(entity, e).properties == intersection_closure(entity.states, generators)


@SETTINGS
@given(systems(), st.data())
def test_equality_is_equality_of_members(drawn, data):
    ground = drawn[0]
    first, _ = _generated(*drawn)
    second, _ = _generated(*data.draw(systems(ground)))
    assert (first == second) == (first.members == second.members)
    assert first == ClosureSystem(ground, first.members) == first


@SETTINGS
@given(systems(), st.data())
def test_equality_agrees_with_members_when_generators_overlap(drawn, data):
    """`==` against comparing the listed members: the same system given by
    its generators plus some of its members, and systems whose generators
    share some but not all sets with the first one's."""
    ground = drawn[0]
    first, generators = _generated(*drawn)
    redundant = data.draw(st.lists(st.sampled_from(sorted(first.members, key=sorted)), max_size=3))
    same = ClosureSystem.generated(ground, generators + redundant)
    assert same.members == first.members
    assert same == first and first == same
    kept = data.draw(st.lists(st.sampled_from(generators), unique=True)) if generators else []
    pool = st.sampled_from(sorted(ground)) if ground else st.nothing()
    extra = data.draw(st.lists(st.frozensets(pool), max_size=2))
    other, _ = _generated(ground, kept + extra)
    assert (first == other) == (other == first) == (first.members == other.members)


@SETTINGS
@given(systems(), st.data())
def test_mask_equality_and_closure_hold_across_item_orders(drawn, data):
    """The same system held over another order of its ground equals it and
    closes every set as the frozenset definition does; `==` against a second
    system agrees with comparing members, on grounds of names and of couples."""
    ground = drawn[0]
    system, generators = _generated(*drawn)
    members = brute_intersection_closure(ground, [generators])
    order = _Order(data.draw(st.permutations(sorted(ground))), system.ground)
    moved = ClosureSystem._of_masks(order, set(map(order.mask, generators)))
    assert moved == system and system == moved
    assert moved.generators == system.generators == frozenset(map(frozenset, generators))
    other, _ = _generated(*data.draw(systems(ground)))
    expected = other.members == members
    assert (moved == other) == (other == moved) == (system == other) == expected
    for _ in range(3):
        K = data.draw(st.frozensets(st.sampled_from(sorted(ground)))) if ground else frozenset()
        assert moved.closure_of(K) == system.closure_of(K) == brute_smallest_member(members, K)
        assert moved.is_closed(K) == system.is_closed(K) == (K in members)


@SETTINGS
@given(systems(), st.data())
def test_inclusion_is_inclusion_of_members(drawn, data):
    """`includes` agrees with comparing the listed members, for systems over
    one order (a second system, and the system both generate), across orders
    of the ground, and over a smaller ground."""
    ground = drawn[0]
    system, generators = _generated(*drawn)
    other, more = _generated(*data.draw(systems(ground)))
    order = system._order
    shared = ClosureSystem._of_masks(order, set(map(order.mask, more)))
    joined = ClosureSystem._of_masks(order, set(map(order.mask, generators + more)))
    moved_order = _Order(data.draw(st.permutations(sorted(ground))), system.ground)
    moved = ClosureSystem._of_masks(moved_order, set(map(moved_order.mask, more)))
    part = data.draw(st.frozensets(st.sampled_from(sorted(ground)))) if ground else frozenset()
    smaller, _ = _generated(*data.draw(systems(part)))
    for big in (system, shared, joined, moved, smaller):
        for small in (system, other, shared, joined, moved, smaller):
            assert big.includes(small) == (small.members <= big.members)
    assert joined.includes(system) and joined.includes(shared)


@SETTINGS
@given(systems())
def test_T0_witness_is_the_least_pair_with_equal_closures(drawn):
    system, _ = _generated(*drawn)
    points = sorted(system.ground)
    cl = lambda w: system.closure_of({w})  # noqa: E731
    violations = [(v, w) for v in points for w in points if v < w and cl(v) == cl(w)]
    assert satisfies_T0(system) == (not violations, min(violations, default=None))


@SETTINGS
@given(systems())
def test_T1_witness_is_the_least_point_whose_singleton_is_not_closed(drawn):
    system, _ = _generated(*drawn)
    unclosed = [w for w in sorted(system.ground, key=str) if system.closure_of({w}) != {w}]
    assert satisfies_T1(system) == (not unclosed, unclosed[0] if unclosed else None)


@SETTINGS
@given(st.sets(st.sampled_from([1, "1", 2, "2", (1,), "(1,)", "b"]), min_size=1), st.data())
def test_T1_witness_breaks_str_ties_by_type_then_repr(ground, data):
    """Points with equal str, such as 1 and '1', go by type name, then repr."""
    points = sorted(ground, key=repr)
    generators = data.draw(st.lists(st.sets(st.sampled_from(points)), max_size=4)) + [set()]
    system = ClosureSystem.generated(ground, generators)
    unclosed = [w for w in ground if system.closure_of({w}) != {w}]
    least = min(unclosed, key=lambda w: (str(w), type(w).__name__, repr(w)), default=None)
    assert satisfies_T1(system) == (not unclosed, least)


# str order and natural_order disagree on these: 1 beside '1', '10' before
# '2', and ints, strings and tuples have no common order
MIXED_POINTS = [1, "1", 2, "2", "10", "b", (1,), "(1,)", ("e", "p"), ("e", "q")]


@st.composite
def mixed_systems(draw):
    """Generated and listed systems over grounds of mixed types."""
    ground = draw(st.frozensets(st.sampled_from(MIXED_POINTS), min_size=1))
    points = sorted(ground, key=repr)
    generators = draw(st.lists(st.frozensets(st.sampled_from(points)), max_size=5)) + [frozenset()]
    if draw(st.booleans()):
        return ClosureSystem.generated(ground, generators)
    return ClosureSystem(ground, brute_intersection_closure(ground, [generators]))


def _separation_by_closure_of(system):
    """(T0, T1) from `closure_of`: the least pair of points with equal
    singleton closures in `natural_order`, and the least point whose singleton
    is not closed by str, then type name and repr."""
    points = natural_order(system.ground)
    cl = [system.closure_of({w}) for w in points]
    pairs = [(i, j) for i in range(len(points)) for j in range(i + 1, len(points)) if cl[i] == cl[j]]
    unclosed = [w for w, closed in zip(points, cl) if closed != {w}]
    least = min(unclosed, key=lambda w: (str(w), type(w).__name__, repr(w)), default=None)
    pair = min(pairs, default=None)
    return (not pairs, pair and (points[pair[0]], points[pair[1]])), (not unclosed, least)


@SETTINGS
@given(st.one_of(mixed_systems(), systems().map(lambda drawn: _generated(*drawn)[0])))
def test_T0_and_T1_witnesses_match_closure_of_on_any_ground(system):
    assert (satisfies_T0(system), satisfies_T1(system)) == _separation_by_closure_of(system)


@SETTINGS
@given(st.one_of(entities(), atomic_entities()), st.sampled_from(["central", "states", "experiments"]))
def test_T0_and_T1_witnesses_match_closure_of_on_eigen_systems(entity, on):
    """Entities with and without a witness: atomic ones satisfy T0 and T1."""
    system = eigen_closure_system(entity, on)
    assert (satisfies_T0(system), satisfies_T1(system)) == _separation_by_closure_of(system)


@SETTINGS
@given(st.lists(st.one_of(NAMES, st.tuples(NAMES, NAMES)), unique=True, max_size=70), st.data())
def test_mask_and_decode_invert_each_other(items, data):
    """On orders mixing names and (experiment, state) couples, the empty one
    included, `decode` inverts `mask` and `mask` inverts `decode`: on a drawn
    set and a drawn mask, on one item and its bit, on nothing and 0, and on
    every item and `full`."""
    order = _Order(items)
    pool = st.sampled_from(items) if items else st.nothing()
    K = data.draw(st.frozensets(pool))
    A = data.draw(st.integers(0, order.full))
    assert order.decode(order.mask(K)) == K
    assert order.mask(order.decode(A)) == A
    assert order.mask(()) == 0 and order.decode(0) == frozenset()
    assert order.mask(items) == order.full and order.decode(order.full) == frozenset(items)
    for i, a in enumerate(items):
        assert order.mask({a}) == 1 << i and order.decode(1 << i) == {a}


@st.composite
def couple_grids(draw):
    experiments = draw(st.frozensets(NAMES, min_size=1, max_size=3))
    states = draw(st.frozensets(NAMES, min_size=1, max_size=3))
    return frozenset(product(experiments, states))


@st.composite
def plus_entities(draw):
    """Entities whose identifiers contain '+', so minted mixture identifiers
    collide, with rows that agree or conflict."""
    states = draw(st.lists(st.sampled_from(["a", "b", "c", "a+b", "b+c"]), min_size=1, max_size=4, unique=True))
    experiments = draw(st.lists(st.sampled_from(["e", "f", "e+f"]), min_size=1, max_size=3, unique=True))
    outcomes = [f"x{i}" for i in range(draw(st.integers(1, 3)))]
    cell = st.frozensets(st.sampled_from(outcomes), min_size=1)
    return Entity(states, experiments, {(e, p): draw(cell) for e in experiments for p in states})


def _reference_full_mixed_entity(entity):
    """The full mixed entity cell by cell from `mixed_outcome_set`, over the
    nonempty subsets in bit-mask order: mask P = 1, 2, ... over the sorted
    items, experiments outer, so a collision names the same cell."""

    def nonempty_subsets(items):
        items = sorted(items)
        return [frozenset(x for i, x in enumerate(items) if P >> i & 1) for P in range(1, 2 ** len(items))]

    experiment_subsets = nonempty_subsets(entity.experiments)
    state_subsets = nonempty_subsets(entity.states)
    table = {}
    for E in experiment_subsets:
        for P in state_subsets:
            eid, pid = mixture_id(E), mixture_id(P)
            cell = mixed_outcome_set(entity, E, P)
            if table.setdefault((eid, pid), cell) != cell:
                raise EntityValidationError(
                    f"minted identifier collision with conflicting rows at ({eid}, {pid}); "
                    "rename base identifiers containing '+'"
                )
    return Entity({mixture_id(P) for P in state_subsets}, {mixture_id(E) for E in experiment_subsets}, table)


@SETTINGS
@given(st.one_of(entities(side=3), plus_entities()))
def test_full_mixed_entity_matches_the_definition(entity):
    def outcome(build):
        try:
            return build(entity)
        except EntityValidationError as err:
            return str(err)

    assert outcome(full_mixed_entity) == outcome(_reference_full_mixed_entity)


@SETTINGS
@given(entities(side=3, max_outcomes=4), st.data())
def test_is_supremum_matches_the_definition(entity, data):
    """A candidate is a supremum of a family when, for every mixture b, all
    members imply b exactly when the candidate does; b runs over every
    nonempty subset. The candidate is often the union of the family."""
    for wrap, kind, pool in (
        (MixedState, RelationKind.state_global(), entity.states),
        (MixedExperiment, RelationKind.experiment_global(), entity.experiments),
        (Event, RelationKind.outcome_global(), entity.outcomes),
    ):
        bases = data.draw(st.lists(subsets(pool), min_size=1, max_size=3))
        candidate = wrap(data.draw(st.one_of(st.just(frozenset().union(*bases)), subsets(pool))))
        family = [wrap(A) for A in bases]
        below = lambda a, b: mixed_implies(entity, kind, a, b)  # noqa: E731
        items = sorted(pool)
        expected = all(
            all(below(a, b) for a in family) == below(candidate, b)
            for r in range(1, len(items) + 1)
            for b in map(wrap, combinations(items, r))
        )
        assert is_supremum(entity, candidate, family) == expected


@st.composite
def distinguishable_entities(draw):
    """Entities whose experiments own disjoint outcome alphabets, over plain
    identifiers or over identifiers containing '+'. In the second case minted
    mixture identifiers collide; when `agree` is drawn, a '+' state's cells
    are the unions of its atoms' cells, so colliding state mixtures agree."""
    plus = draw(st.booleans())
    state_pool = ["a", "b", "c", "a+b", "b+c"] if plus else ["a", "b", "c", "d"]
    experiment_pool = ["e", "f", "e+f", "g"] if plus else ["e", "f", "g"]
    states = draw(st.lists(st.sampled_from(state_pool), min_size=1, max_size=4, unique=True))
    experiments = draw(st.lists(st.sampled_from(experiment_pool), min_size=1, max_size=3, unique=True))
    agree = draw(st.booleans())
    table = {}
    for e in experiments:
        alphabet = [f"{e}.x{i}" for i in range(draw(st.integers(1, 3)))]
        cell = st.frozensets(st.sampled_from(alphabet), min_size=1)
        for p in sorted(states, key=len):
            atoms = p.split("+")
            if agree and len(atoms) > 1 and set(atoms) <= set(states):
                table[(e, p)] = frozenset().union(*(table[(e, a)] for a in atoms))
            else:
                table[(e, p)] = draw(cell)
    return Entity(states, experiments, table)


@SETTINGS
@given(distinguishable_entities())
def test_global_testable_sps_matches_the_definition(entity):
    """The total mixed experiment's row alone gives the testable system of
    that experiment over the full mixed entity, refusals included."""
    assert is_distinguishable(entity)

    def outcome(build):
        try:
            sps = build(entity)
        except SoeError as err:
            return type(err), str(err)
        outcomes = frozenset().union(*sps.labels.values())
        coatoms = {x: sps.testable_property(outcomes - {x}) for x in outcomes}
        return sps.states, sps.properties, sps.actual, sps.labels, coatoms

    definition = lambda e: testable_sps(full_mixed_entity(e), mixture_id(e.experiments))  # noqa: E731
    assert outcome(global_testable_sps) == outcome(definition)


KEPT_FIELDS = ("properties", "actual", "labels")


@SETTINGS
@given(entities(), st.data())
def test_kept_mask_systems_list_the_same_whichever_field_is_asked_first(entity, data):
    """A testable system, of one experiment or of the total mixed experiment,
    lists nothing when it is built; its properties, actual and labels, asked
    in any order, equal those of the same system listed before any of them
    is asked, and its coatoms, read through testable_property, are the
    listed members of masks full & ~has[x]."""
    builds = [lambda e=e: testable_sps(entity, e) for e in sorted(entity.experiments)]
    if is_distinguishable(entity):
        builds.append(lambda: global_testable_sps(entity))
    sps = data.draw(st.sampled_from(builds))()
    assert sps._found is None
    asked = {name: getattr(sps, name) for name in data.draw(st.permutations(KEPT_FIELDS))}
    order, has = sps._system._order, sps._has
    listed = StatePropertySystem._of_masks(order, has)
    found = listed._listing()
    assert asked == {name: getattr(listed, name) for name in KEPT_FIELDS}
    coatoms = {x: sps.testable_property(has.keys() - {x}) for x in has}
    assert coatoms == {x: found[order.full & ~h] for x, h in has.items()}
    assert sps == listed


@st.composite
def bang_entities(draw):
    """Entities whose couples sort differently by str than experiment-major:
    str(("a!", "p")) < str(("a", "p")), as '!' sorts before the quote."""
    experiments = draw(st.lists(st.sampled_from(["a", "a!", "a!b", "ab", "b"]), min_size=1, max_size=3, unique=True))
    states = draw(st.lists(st.sampled_from(["p", "p!", "q"]), min_size=1, max_size=3, unique=True))
    cell = st.frozensets(st.sampled_from(["x0", "x1", "x2", "x3"]), min_size=1)
    return Entity(states, experiments, {(e, p): draw(cell) for e in experiments for p in states})


@SETTINGS
@given(st.one_of(entities(), plus_entities(), bang_entities(), named_entities()))
def test_relation_report_lists_each_sections_pairs_by_the_queries(entity):
    """Every section of `relation_report`, for all seven kinds, lists the
    pairs `implies` (reflexive ones included) and `orthogonal` (a != b) accept,
    in universe order: couples experiment-major, all else sorted."""
    experiments, states = sorted(entity.experiments), sorted(entity.states)
    sections = [
        (RelationKind.central(), entity.couples()),
        (RelationKind.state_global(), states),
        (RelationKind.experiment_global(), experiments),
        (RelationKind.outcome_global(), sorted(entity.outcomes)),
    ]
    sections += [(RelationKind.state_for(e), states) for e in experiments]
    sections += [(RelationKind.experiment_for(p), experiments) for p in states]
    sections += [(RelationKind.outcome_for(e, p), sorted(entity.outcome_set(e, p))) for e, p in entity.couples()]
    report = relation_report(entity)
    assert [section.kind for section in report.sections] == [kind.describe() for kind, _ in sections]
    for section, (kind, universe) in zip(report.sections, sections):
        pairs = [(a, b) for a in universe for b in universe]
        assert list(section.implications) == [(a, b) for a, b in pairs if implies(entity, kind, a, b)]
        assert list(section.orthogonalities) == [(a, b) for a, b in pairs if a != b and orthogonal(entity, kind, a, b)]


@st.composite
def thin_entities(draw):
    """1×n and n×1 entities, their table given in reverse couple order."""
    names = [f"i{k}" for k in range(draw(st.integers(1, 6)))]
    states, experiments = (names, ["e"]) if draw(st.booleans()) else (["p"], names)
    cell = st.frozensets(st.sampled_from(["x0", "x1", "x2"]), min_size=1)
    couples = [(e, p) for e in experiments for p in states]
    return Entity(states, experiments, {couple: draw(cell) for couple in reversed(couples)})


ORDERED_ENTITIES = st.one_of(entities(), plus_entities(), bang_entities(), named_entities(), thin_entities())


@SETTINGS
@given(ORDERED_ENTITIES)
def test_couples_and_cells_follow_the_sorted_definition(entity):
    couples = [(e, p) for e in sorted(entity.experiments) for p in sorted(entity.states)]
    assert entity.couples() == couples
    assert list(entity.cells()) == [(couple, entity.outcome_set(*couple)) for couple in couples]


@SETTINGS
@given(ORDERED_ENTITIES)
def test_every_view_of_relation_views_is_its_per_key_definition(entity):
    experiments, states = sorted(entity.experiments), sorted(entity.states)
    cell = entity.outcome_set
    definitions = [(RelationKind.central(), entity.couples(), lambda c: (cell(*c),)),
                   (RelationKind.state_global(), states, lambda p: tuple(cell(e, p) for e in experiments)),
                   (RelationKind.experiment_global(), experiments, lambda e: tuple(cell(e, p) for p in states)),
                   (RelationKind.outcome_global(), sorted(entity.outcomes), lambda x: (frozenset({x}),))]
    for e in experiments:
        definitions.append((RelationKind.state_for(e), states, lambda p, e=e: (cell(e, p),)))
    for p in states:
        definitions.append((RelationKind.experiment_for(p), experiments, lambda e, p=p: (cell(e, p),)))
    for e, p in entity.couples():
        definitions.append((RelationKind.outcome_for(e, p), sorted(entity.outcomes), lambda x: (frozenset({x}),)))
    for kind, items, definition in definitions:
        view, _ = relation_views(entity, kind)
        for a in items:
            assert type(view(a)) is tuple and view(a) == definition(a), (kind.describe(), a)


@SETTINGS
@given(ORDERED_ENTITIES)
def test_determination_and_atomicity_witnesses_keep_the_least_pairs(entity):
    expected = _brute_witnesses(entity)
    for name, predicate in (("outcome_determined", is_outcome_determined), ("state_determined", is_state_determined),
                            ("experiment_determined", is_experiment_determined),
                            ("central_atomic", is_central_atomic), ("state_atomic", is_state_atomic),
                            ("experiment_atomic", is_experiment_atomic)):
        assert predicate(entity) == (expected[name] is None, expected[name]), name


@st.composite
def couple_systems(draw):
    """A system over the couple grid of an entity with '!' in its
    identifiers, from each constructor: the holder index's central eigen and
    ortho systems (couples experiment-major), and `ClosureSystem.generated`
    and `ClosureSystem(ground, members)` (couples in set iteration order)."""
    entity = draw(bang_entities())
    kind = draw(st.sampled_from(["eigen", "ortho", "generated", "listed"]))
    if kind == "eigen":
        return eigen_closure_system(entity, "central")
    if kind == "ortho":
        return ortho_closure_system(entity_ortho_space(entity, "central"))
    ground = frozenset(entity.couples())
    generators = draw(st.lists(st.frozensets(st.sampled_from(sorted(ground))), max_size=6))
    system = ClosureSystem.generated(ground, generators + [frozenset()])
    return system if kind == "generated" else ClosureSystem(ground, system.members)


@SETTINGS
@given(st.one_of(couple_grids().flatmap(systems).map(lambda drawn: _generated(*drawn)[0]), couple_systems()))
def test_state_trace_is_the_trace_of_every_member(system):
    """The mask trace is {p | (e, p) in Y for all e} of every member Y."""
    experiments = {e for e, _ in system.ground}
    states = frozenset(p for _, p in system.ground)
    trace = lambda Y: frozenset(p for p in states if all((e, p) in Y for e in experiments))  # noqa: E731
    traced = state_trace(system)
    assert traced.ground == states
    assert traced.members == {trace(m) for m in system.members}


def _frozenset_axiom_checks(system, name, diag, rng):
    """The sampled closure-axiom checks of `soe verify` written on frozensets
    and `closure_of`: the oracle of the mask sampler."""
    axioms, idempotent = f"closures.axioms.{name}", f"closures.idempotent.{name}"
    diag.checks.setdefault(idempotent, True)
    ground = sorted(system.ground, key=str)
    for _ in range(5):
        K = frozenset(rng.sample(ground, rng.randint(0, len(ground))))
        closed = system.closure_of(K)
        if not K <= closed:
            diag.record(axioms, False, f"extensive: K = {_fmt_member(K)}")
        if K:
            least = min(K, key=str)
            if not system.closure_of(K - {least}) <= closed:
                diag.record(axioms, False, f"monotone: K = {_fmt_member(K)} less {_fmt_item(least)}")
        if system.closure_of(closed) != closed:
            diag.record(idempotent, False, _fmt_member(K))


def _drop_lowest(close):
    """An operator that loses the lowest bit of every K of two or more items."""
    return lambda system, k: close(system, k) & ~(k & -k) if k & (k - 1) else close(system, k)


def _add_lowest_outside(close):
    """An operator that adds the lowest item outside each closure."""
    def grown(system, k):
        closed = close(system, k)
        outside = system._order.full & ~closed
        return closed | outside & -outside
    return grown


@SETTINGS
@given(
    st.one_of(
        bang_entities().map(lambda entity: list(_closure_checks(entity, Diagnostics(), random.Random(0)).items())),
        st.lists(systems().map(lambda drawn: _generated(*drawn)[0]), min_size=1, max_size=3).map(
            lambda drawn: [(f"g{i}", system) for i, system in enumerate(drawn)]
        ),
    ),
    st.sampled_from([None, _drop_lowest, _add_lowest_outside]),
    st.integers(0, 2**32),
)
def test_mask_sampler_matches_the_frozenset_sampler(named_systems, mutation, seed):
    """Same checks, failure lines and RNG state after, on the systems verify
    builds and on generated ones (items in set iteration order), under a
    correct operator and under two broken ones."""
    close = ClosureSystem._close
    outcomes = []
    for sampler in (_sampled_axiom_checks, _frozenset_axiom_checks):
        diag, rng = Diagnostics(cap=25), random.Random(seed)
        with patch.object(ClosureSystem, "_close", mutation(close) if mutation else close):
            for name, system in named_systems:
                sampler(system, name, diag, rng)
        outcomes.append((diag.checks, diag.failures, diag._overflow, rng.getstate()))
    assert outcomes[0] == outcomes[1]


@SETTINGS
@given(named_entities())
def test_parse_inverts_emit(entity):
    assert parse_entity(emit_entity(entity)).entity == entity


@st.composite
def measured_entities(draw):
    """An entity and up to three probability tables on its triples, each
    value any float in (0, 1] (a zero is not stored)."""
    entity = draw(named_entities())
    triples = [(e, p, x) for (e, p), cell in entity.cells() for x in sorted(cell)]
    value = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
    names = draw(st.lists(IDENTIFIERS, max_size=3, unique=True))
    tables = {name: draw(st.dictionaries(st.sampled_from(triples), value)) for name in names}
    return entity, {name: ProbabilityTable(table) for name, table in tables.items()}


@SETTINGS
@given(measured_entities())
def test_parse_inverts_emit_with_measures(drawn):
    """Every value emit_entity writes reads back as the same float, bit for bit."""
    entity, measures = drawn
    doc = parse_entity(emit_entity(entity, measures))
    assert doc.entity == entity
    bits = lambda tables: {n: {k: v.hex() for k, v in t.entries.items()} for n, t in tables.items()}  # noqa: E731
    assert bits(doc.measures) == bits(measures)


# identifiers, keys and values of every section, the reserved punctuation, and
# section headers whole and broken
TOKENS = st.sampled_from(
    ["p", "q", "e", "x", "mu", "0.5", "1", "nan", "states", "experiments", "outcomes",
     "m", "n", "l", "k", ",", "=", "#", "[", "]", " ", "\t", "\n", "[entity]", "[outcomes]",
     "[witness]", "[probability]", "[probability mu]", "[entity] x", "[ ]"]
)


@settings(max_examples=500, deadline=None)
@given(st.lists(TOKENS, max_size=40).map("".join))
def test_arbitrary_text_raises_only_parse_errors(text):
    for parse in (parse_entity, parse_witness):
        try:
            parse(text)
        except ParseError:
            pass
