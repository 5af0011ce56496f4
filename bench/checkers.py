"""Reference computations the benchmark checks soe's outputs against.

Everything here works from the raw (experiment, state) -> outcome-set table
that the benchmark generated, with its own integer-bitset code. Nothing in this
module imports soe, so a fault in the kernel cannot hide in its own referee.
"""

from __future__ import annotations

import re


class Table:
    """A raw entity table: states, experiments and cells (e, p) -> frozenset."""

    def __init__(self, states, experiments, cells):
        self.states = sorted(states)
        self.experiments = sorted(experiments)
        self.cells = {couple: frozenset(cell) for couple, cell in cells.items()}
        self.outcomes = sorted(frozenset().union(*self.cells.values()))

    def couples(self):
        return [(e, p) for e in self.experiments for p in self.states]

    def state_row(self, p):
        return tuple(self.cells[(e, p)] for e in self.experiments)

    def experiment_row(self, e):
        return tuple(self.cells[(e, p)] for p in self.states)


# -- bitset closure families ----------------------------------------------------


def mask(items, index) -> int:
    out = 0
    for item in items:
        out |= 1 << index[item]
    return out


def intersection_family(n: int, generators) -> set:
    """Every intersection of a subfamily of `generators` over n points, the
    empty subfamily giving the full set. Adding one generator at a time keeps
    the invariant that the set holds the intersections of all subfamilies
    seen so far."""
    members = {(1 << n) - 1}
    for g in set(generators):
        members |= {m & g for m in members}
    return members


def is_intersection_closed(members) -> bool:
    return all(a & b in members for a in members for b in members)


def eigen_generators(t: Table, on: str, scoped_to=None):
    """Ground list and co-atom generators (drop one outcome) of an eigen
    closure system, read directly from the table."""
    if on == "states":
        ground = t.states
        pairs = [(e, p) for e in ([scoped_to] if scoped_to else t.experiments) for p in t.states]
        groups = {}
        for e, p in pairs:
            groups.setdefault(e, []).append(p)
        generators = []
        for e, members in groups.items():
            full = frozenset().union(*(t.cells[(e, p)] for p in members))
            for x in full:
                generators.append([p for p in members if x not in t.cells[(e, p)]])
    elif on == "experiments":
        ground = t.experiments
        generators = []
        for p in ([scoped_to] if scoped_to else t.states):
            full = frozenset().union(*(t.cells[(e, p)] for e in t.experiments))
            for x in full:
                generators.append([e for e in t.experiments if x not in t.cells[(e, p)]])
    elif on == "central":
        ground = t.couples()
        generators = [[c for c in ground if x not in t.cells[c]] for x in t.outcomes]
    else:
        raise ValueError(on)
    index = {a: i for i, a in enumerate(ground)}
    return ground, [mask(g, index) for g in generators]


def orthogonal_fn(t: Table, on: str):
    cells = t.cells
    if on == "states":
        return lambda a, b: any(not (cells[(e, a)] & cells[(e, b)]) for e in t.experiments)
    if on == "experiments":
        return lambda a, b: any(not (cells[(a, p)] & cells[(b, p)]) for p in t.states)
    if on == "central":
        return lambda a, b: not (cells[a] & cells[b])
    raise ValueError(on)


def ortho_generators(t: Table, on: str):
    """Ground list and singleton orthocomplements of an ortho closure system."""
    ground = {"states": t.states, "experiments": t.experiments, "central": t.couples()}[on]
    orth = orthogonal_fn(t, on)
    index = {a: i for i, a in enumerate(ground)}
    return ground, [mask([a for a in ground if a != x and orth(a, x)], index) for x in ground]


def family(kind: str, t: Table, on: str, scoped_to=None):
    """(ground, members as a set of bitmasks) of an eigen or ortho system."""
    if kind == "eigen":
        ground, gens = eigen_generators(t, on, scoped_to)
    else:
        ground, gens = ortho_generators(t, on)
    return ground, intersection_family(len(ground), gens)


def masks_of(ground, members) -> set:
    """Bitmasks of a family of Python sets over `ground` (raises on a stray point)."""
    index = {a: i for i, a in enumerate(ground)}
    return {mask(m, index) for m in members}


def mixture_name(base) -> str:
    return "+".join(sorted(base))


def global_testable_family(t: Table):
    """Properties of the total mixed experiment over the full mixed entity:
    mixed states are the nonempty state subsets, and a mixed state's cell is
    the union of its base states' cells under every experiment."""
    n = len(t.states)
    subsets = [
        frozenset(t.states[i] for i in range(n) if bits >> i & 1) for bits in range(1, 1 << n)
    ]
    union_cell = {
        P: frozenset().union(*(t.cells[(e, p)] for e in t.experiments for p in P)) for P in subsets
    }
    ground = [mixture_name(P) for P in subsets]
    generators = [
        sum(1 << i for i, P in enumerate(subsets) if x not in union_cell[P]) for x in t.outcomes
    ]
    return ground, intersection_family(len(ground), generators)


# -- classification flags and relation counts -------------------------------------


FIVE_PREDICATES = (
    "outcome_determined",
    "state_determined",
    "experiment_determined",
    "state_atomic",
    "experiment_atomic",
)


def _some_row_inside_another(rows) -> bool:
    """Whether some row is inside another, component by component."""
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            if i != j and all(x <= y for x, y in zip(a, b)):
                return True
    return False


def classify_flags(t: Table, names=None) -> dict:
    """The classification flags recomputed from the table (all eight, or `names`)."""
    cells = t.cells
    couples = t.couples()
    state_rows = [t.state_row(p) for p in t.states]
    experiment_rows = [t.experiment_row(e) for e in t.experiments]
    compute = {
        "outcome_determined": lambda: len({cells[c] for c in couples}) == len(couples),
        "state_determined": lambda: len(set(state_rows)) == len(state_rows),
        "experiment_determined": lambda: len(set(experiment_rows)) == len(experiment_rows),
        "central_atomic": lambda: not _some_row_inside_another([(cells[c],) for c in couples]),
        "state_atomic": lambda: not _some_row_inside_another(state_rows),
        "experiment_atomic": lambda: not _some_row_inside_another(experiment_rows),
        "d_classical": lambda: all(len(cell) == 1 for cell in cells.values()),
        "distinguishable": lambda: _disjoint_alphabets(t),
    }
    return {name: compute[name]() for name in (names or compute)}


def _disjoint_alphabets(t: Table) -> bool:
    seen = set()
    for e in t.experiments:
        alphabet = frozenset().union(*(t.cells[(e, p)] for p in t.states))
        if seen & alphabet:
            return False
        seen |= alphabet
    return True


def _count_pairs(universe, below, orth):
    implications = sum(1 for a in universe for b in universe if below(a, b))
    orthogonal = sum(1 for a in universe for b in universe if a != b and orth(a, b))
    return implications, orthogonal


def relation_counts(t: Table) -> dict:
    """Section name -> (implication pairs, orthogonal pairs), reflexive
    implications included and orthogonal pairs counted in both orders."""
    cells = t.cells
    S, E = t.states, t.experiments
    out = {
        "central": _count_pairs(t.couples(), lambda a, b: cells[a] <= cells[b], orthogonal_fn(t, "central")),
        "state": _count_pairs(
            S, lambda a, b: all(cells[(e, a)] <= cells[(e, b)] for e in E), orthogonal_fn(t, "states")
        ),
        "experiment": _count_pairs(
            E, lambda a, b: all(cells[(a, p)] <= cells[(b, p)] for p in S), orthogonal_fn(t, "experiments")
        ),
        "outcome": (len(t.outcomes), _outcome_orth(t)),
    }
    for e in E:
        out[f"state<{e}>"] = _count_pairs(
            S, lambda a, b: cells[(e, a)] <= cells[(e, b)], lambda a, b: not (cells[(e, a)] & cells[(e, b)])
        )
    for p in S:
        out[f"experiment<{p}>"] = _count_pairs(
            E, lambda a, b: cells[(a, p)] <= cells[(b, p)], lambda a, b: not (cells[(a, p)] & cells[(b, p)])
        )
    for (e, p), cell in cells.items():
        out[f"outcome<{e},{p}>"] = (len(cell), len(cell) * (len(cell) - 1))
    return {name: counts for name, counts in out.items() if counts != (0, 0)}


def _outcome_orth(t: Table) -> int:
    """Ordered pairs of distinct outcomes that share some cell."""
    pairs = set()
    for cell in set(t.cells.values()):
        pairs.update((a, b) for a in cell for b in cell if a != b)
    return len(pairs)


# -- reading the structured report ---------------------------------------------------


def structured_rows(text: str) -> dict:
    rows = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            rows[key] = value
    return rows


_COUPLE = re.compile(r"\(([^,()]+),([^,()]+)\)")


def parse_member(rendered: str) -> frozenset:
    """'{a,b}' or '{(e,p),(f,q)}' back into a set of items."""
    body = rendered.strip()[1:-1]
    if not body:
        return frozenset()
    if body.startswith("("):
        return frozenset(_COUPLE.findall(body))
    return frozenset(body.split(","))


def report_relation_counts(text: str) -> dict:
    counts = {}
    for key in structured_rows(text):
        kind, what, _ = key[len("analyze."):].rsplit(".", 2)
        imp, orth = counts.get(kind, (0, 0))
        counts[kind] = (imp + 1, orth) if what == "implication" else (imp, orth + 1)
    return counts


def report_flags(text: str) -> dict:
    return {
        key[len("classify."):]: value == "true"
        for key, value in structured_rows(text).items()
        if key.startswith("classify.") and not key.startswith("classify.witness.")
    }


def report_members(text: str) -> tuple:
    """(closures.size, set of members) of a `closures --structured` report."""
    rows = structured_rows(text)
    members = {parse_member(v) for k, v in rows.items() if k.startswith("closures.member.")}
    return int(rows["closures.size"]), members
