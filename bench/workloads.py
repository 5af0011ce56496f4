"""The four workloads: seeded inputs, the fixed list of operations of one pass,
and the check of every operation's output.

A workload object is built in three steps, so the worker can time them apart:
`load()` imports the soe modules it calls, `make_inputs()` draws the seeded
inputs, and `expect()` computes the reference answers with `checkers` (never
timed). `ops()` returns the pass as (name, callable) pairs; `check(name, out)`
raises CheckError when an output is wrong. `untimed_ops()` are run after the
timed part of each pass and count as attempted operations but never add to
the pass time.

Why the inputs are drawn as they are: closure work grows with the square of
the family size, and a seeded random 12x12 dense entity has anywhere from 660
to 875 members, so a pass-time median over seeds would spread by a quarter.
Where family size drives the work (closure_build, verify_suite) the table's
structure therefore comes from a fixed stream, and --seed draws a random
isomorphic copy: new identifiers and a new order of states, experiments and
outcomes. That changes every string hash, sort order and set iteration order
the kernel sees while keeping the amount of work fixed. Where the work is an
average over many cells (table_scan) or the inputs are tiny (cli_small), --seed
draws the table itself.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import random
import string
import subprocess
import sys

import checkers
from checkers import Table

FIXTURE = os.path.join("tests", "fixtures", "three_by_three.soe")


class CheckError(Exception):
    """An output of soe disagrees with the benchmark's reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# -- seeded inputs -------------------------------------------------------------------


def tokens(rng: random.Random, prefix: str, n: int) -> list:
    """n distinct identifiers prefix + 4 random letters, in draw order."""
    out, seen = [], set()
    while len(out) < n:
        token = prefix + "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
        if token not in seen:
            seen.add(token)
            out.append(token)
    return out


def structure(stream, n_states: int, n_experiments: int, n_outcomes: int, lo: int, hi: int) -> dict:
    """Cells over indices, (experiment index, state index) -> outcome indices,
    each cell drawing lo..hi of n_outcomes from random.Random(stream)."""
    rng = random.Random(stream)
    return {
        (i, j): tuple(rng.sample(range(n_outcomes), rng.randint(lo, hi)))
        for i in range(n_experiments)
        for j in range(n_states)
    }


def labelled(rng: random.Random, cells: dict) -> Table:
    """A copy of an index structure under random identifiers."""
    n_experiments = 1 + max(i for i, _ in cells)
    n_states = 1 + max(j for _, j in cells)
    n_outcomes = 1 + max(x for cell in cells.values() for x in cell)
    E = tokens(rng, "e", n_experiments)
    S = tokens(rng, "s", n_states)
    X = tokens(rng, "x", n_outcomes)
    return Table(S, E, {(E[i], S[j]): frozenset(X[x] for x in cell) for (i, j), cell in cells.items()})


def random_table(rng: random.Random, n_states: int, n_experiments: int, n_outcomes: int, lo: int, hi: int) -> Table:
    return labelled(rng, structure(rng.random(), n_states, n_experiments, n_outcomes, lo, hi))


def entity_text(t: Table, rng: random.Random | None = None, measures=None) -> str:
    """The benchmark's own writer of the soe text format. With `rng` the
    identifier lists and cell lines come in a shuffled order."""
    states, experiments, couples = list(t.states), list(t.experiments), t.couples()
    if rng is not None:
        for items in (states, experiments, couples):
            rng.shuffle(items)
    lines = ["[entity]", "states = " + ", ".join(states), "experiments = " + ", ".join(experiments), "[outcomes]"]
    lines += [f"{e} {p} = " + ", ".join(sorted(t.cells[(e, p)])) for e, p in couples]
    for name, table in sorted((measures or {}).items()):
        lines.append(f"[probability {name}]")
        lines += [f"{e} {p} {x} = {value!r}" for (e, p, x), value in sorted(table.items())]
    return "\n".join(lines) + "\n"


def witness_text(witness) -> str:
    lines = ["[witness]"]
    lines += [f"{kind} {a} = {b}" for kind, mapping in witness for a, b in sorted(mapping.items())]
    return "\n".join(lines) + "\n"


def uniform_measure(t: Table) -> dict:
    return {(e, p, x): 1 / len(cell) for (e, p), cell in t.cells.items() for x in cell}


def weighted_measure(rng: random.Random, t: Table) -> dict:
    """A probability table with random positive weights, normalised per cell."""
    out = {}
    for (e, p), cell in sorted(t.cells.items()):
        weights = {x: rng.randint(1, 9) for x in sorted(cell)}
        total = sum(weights.values())
        out.update({(e, p, x): w / total for x, w in weights.items()})
    return out


def write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def fixture_table() -> Table:
    """The 3x3 fixture file read with the benchmark's own reader."""
    cells, states, experiments = {}, [], []
    section = None
    with open(FIXTURE, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if line.startswith("["):
                section = line
            elif "=" in line:
                lhs, rhs = (part.strip() for part in line.split("=", 1))
                values = [v.strip() for v in rhs.split(",")]
                if section == "[entity]" and lhs == "states":
                    states = values
                elif section == "[entity]" and lhs == "experiments":
                    experiments = values
                elif section == "[outcomes]":
                    e, p = lhs.split()
                    cells[(e, p)] = frozenset(values)
    return Table(states, experiments, cells)


# -- running soe -------------------------------------------------------------------------


def soe_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv) -> str:
    """`python -m soe.cli ARGV` as a subprocess; returns stdout, raises on exit != 0."""
    proc = subprocess.run(
        [sys.executable, "-m", "soe.cli", *argv], capture_output=True, text=True, env=soe_env(), timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"soe {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def main_in_process(cli, argv) -> str:
    """soe.cli.main(ARGV) in this process; returns stdout, raises on exit != 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"soe {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def check_family(system, ground, expected, label) -> None:
    """A ClosureSystem equals the bitset family and is intersection closed."""
    require(set(system.ground) == set(ground), f"{label}: wrong ground set")
    got = checkers.masks_of(ground, system.members)
    require(len(got) == len(system.members), f"{label}: duplicate members")
    require(got == expected, f"{label}: {len(got)} members, the bitset closure has {len(expected)}")
    require(checkers.is_intersection_closed(got), f"{label}: not intersection closed")


def check_flags(reported: dict, table: Table, label: str) -> None:
    expected = checkers.classify_flags(table, list(reported))
    require(set(reported) >= set(checkers.FIVE_PREDICATES), f"{label}: flags missing")
    for name, flag in reported.items():
        require(flag == expected[name], f"{label}: {name} is {flag}, the table says {expected[name]}")


def check_verdict(text: str, key: str, label: str) -> None:
    rows = checkers.structured_rows(text)
    require(rows.get(key) == "pass", f"{label}: {key} = {rows.get(key)}")


# -- workloads -------------------------------------------------------------------------------


class Workload:
    name = ""

    def load(self) -> None:
        pass

    def expect(self) -> None:
        pass

    def untimed_ops(self) -> list:
        return []

    def trace_ops(self) -> list:
        """The pass the traced run instruments (the timed pass by default)."""
        return self.ops()


class CliSmall(Workload):
    """Seven `python -m soe.cli ... --structured` subprocesses per pass."""

    name = "cli_small"

    def make_inputs(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"cli_small/{seed}")
        self.fixture = fixture_table()
        self.small = random_table(rng, 4, 4, 6, 1, 3)
        self.small_file = write(workdir, "small.soe", entity_text(self.small, rng))
        # subentity: every state of `sub` is duplicated in `big`; m sends both
        # copies back, n and l are identities, and the measure is uniform
        sub = random_table(rng, 3, 3, 5, 1, 3)
        copies = {p: (p + "a", p + "b") for p in sub.states}
        big = Table(
            [c for pair in copies.values() for c in pair],
            sub.experiments,
            {(e, c): cell for (e, p), cell in sub.cells.items() for c in copies[p]},
        )
        self.sub_file = write(workdir, "sub.soe", entity_text(sub, rng, {"mu": uniform_measure(sub)}))
        self.big_file = write(workdir, "big.soe", entity_text(big, rng, {"mu": uniform_measure(big)}))
        witness = [
            ("m", {c: p for p, pair in copies.items() for c in pair}),
            ("n", {e: e for e in sub.experiments}),
            ("l", {x: x for x in sub.outcomes}),
        ]
        self.witness_file = write(workdir, "witness.soe", witness_text(witness))
        self.theta = rng.uniform(0.0, math.pi)
        self.phi = rng.uniform(0.0, 2 * math.pi)

    def commands(self) -> list:
        return [
            ("analyze", ["analyze", FIXTURE, "--structured"]),
            ("closures_eigen", ["closures", self.small_file, "--kind", "eigen", "--on", "states", "--structured"]),
            ("closures_ortho", ["closures", FIXTURE, "--kind", "ortho", "--on", "central", "--structured"]),
            ("classify", ["classify", self.small_file, "--structured"]),
            ("verify", ["verify", FIXTURE, "--structured"]),
            ("subentity", ["subentity", self.sub_file, self.big_file, "--witness", self.witness_file,
                           "--probabilistic", "--structured"]),
            ("qmachine", ["qmachine", "--theta", repr(self.theta), "--phi", repr(self.phi), "--structured"]),
        ]

    def expect(self) -> None:
        self.expected = {
            "analyze": checkers.relation_counts(self.fixture),
            "closures_eigen": checkers.family("eigen", self.small, "states"),
            "closures_ortho": checkers.family("ortho", self.fixture, "central"),
        }

    def ops(self) -> list:
        return [(name, lambda argv=argv: run_cli(argv)) for name, argv in self.commands()]

    def trace_ops(self) -> list:
        cli = importlib.import_module("soe.cli")
        return [(name, lambda argv=argv: main_in_process(cli, argv)) for name, argv in self.commands()]

    def check(self, name: str, out: str) -> None:
        if name == "analyze":
            got = checkers.report_relation_counts(out)
            require(got == self.expected[name], "analyze: relation pair counts differ from the table")
        elif name.startswith("closures"):
            ground, members = self.expected[name]
            size, listed = checkers.report_members(out)
            require(size == len(members) == len(listed), f"{name}: size {size}, the bitset closure has {len(members)}")
            require(checkers.masks_of(ground, listed) == members, f"{name}: members differ from the bitset closure")
        elif name == "classify":
            check_flags(checkers.report_flags(out), self.small, "classify")
        elif name == "verify":
            check_verdict(out, "verify.verdict", "verify")
        elif name == "subentity":
            check_verdict(out, "subentity.verdict", "subentity")
        elif name == "qmachine":
            rows = checkers.structured_rows(out)
            p1 = (1 + math.cos(self.theta)) / 2
            for key in ("qmachine.elastic.p1", "qmachine.hilbert.p1"):
                require(abs(float(rows[key]) - p1) <= 1e-9, f"{key} = {rows[key]}, (1 + cos theta)/2 = {p1!r}")
            require(float(rows["qmachine.max_difference"]) <= 1e-9, "qmachine: max_difference above 1e-9")


class ClosureBuild(Workload):
    """In-process construction of eigen and ortho closure families."""

    name = "closure_build"

    def load(self) -> None:
        self.closure = importlib.import_module("soe.closure")
        self.statprop = importlib.import_module("soe.statprop")
        self.entity = importlib.import_module("soe.entity")

    def make_inputs(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"closure_build/{seed}")
        self.tables = {
            # 1-3 of 12 outcomes per cell: both global families are full power sets
            "sparse": labelled(rng, structure("closure_build/sparse", 10, 10, 12, 1, 3)),
            # 3-6 of 8 outcomes per cell: families far below 2^12
            "dense": labelled(rng, structure("closure_build/dense", 12, 12, 8, 3, 6)),
            "central": labelled(rng, structure("closure_build/central", 4, 6, 10, 1, 3)),
        }
        # every experiment owns its outcomes, so the entity is distinguishable
        cells = structure("closure_build/distinguishable", 6, 6, 3, 1, 2)
        self.tables["distinguishable"] = labelled(
            rng, {(i, j): tuple(3 * i + x for x in cell) for (i, j), cell in cells.items()}
        )
        self.entities = {
            name: self.entity.Entity(t.states, t.experiments, t.cells) for name, t in self.tables.items()
        }
        # the sparse families on experiments would repeat the power-set work of
        # those on states, so they are left out to keep the pass short
        self.systems = [("eigen", "sparse", "states"), ("ortho", "sparse", "states")] + [
            (kind, "dense", on) for kind in ("eigen", "ortho") for on in ("states", "experiments")
        ] + [("eigen", "central", "central"), ("ortho", "central", "central")]

    def expect(self) -> None:
        self.expected = {
            f"{kind}.{name}.{on}": checkers.family(kind, self.tables[name], on) for kind, name, on in self.systems
        }
        dense = self.tables["dense"]
        self.expected["testable_sps"] = [
            checkers.family("eigen", dense, "states", e) for e in dense.experiments
        ]
        self.expected["global_testable_sps"] = checkers.global_testable_family(self.tables["distinguishable"])

    def build(self, kind: str, name: str, on: str):
        entity = self.entities[name]
        if kind == "eigen":
            return self.closure.eigen_closure_system(entity, on)
        return self.closure.ortho_closure_system(self.closure.entity_ortho_space(entity, on))

    def ops(self) -> list:
        dense = self.entities["dense"]
        ops = [
            (f"{kind}.{name}.{on}", lambda k=kind, n=name, o=on: self.build(k, n, o))
            for kind, name, on in self.systems
        ]
        ops.append(("testable_sps", lambda: [
            self.statprop.testable_sps(dense, e) for e in self.tables["dense"].experiments
        ]))
        ops.append(("global_testable_sps", lambda: self.statprop.global_testable_sps(
            self.entities["distinguishable"]
        )))
        return ops

    def check(self, name: str, out) -> None:
        if name == "testable_sps":
            require(len(out) == len(self.expected[name]), "testable_sps: one system per experiment")
            for sps, (ground, members) in zip(out, self.expected[name]):
                require(checkers.masks_of(ground, sps.properties) == members, "testable_sps: properties differ")
        elif name == "global_testable_sps":
            ground, members = self.expected[name]
            require(checkers.masks_of(ground, out.properties) == members, "global_testable_sps: properties differ")
        else:
            ground, members = self.expected[name]
            check_family(out, ground, members, name)


class VerifySuite(Workload):
    """In-process `verify` and `classify` through soe.cli.main, plus the
    sampled quantum sub-entity demonstration."""

    name = "verify_suite"

    def load(self) -> None:
        self.cli = importlib.import_module("soe.cli")
        self.quantum = importlib.import_module("soe.quantum")

    def make_inputs(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"verify_suite/{seed}")
        self.seed = seed
        self.fixture = fixture_table()
        self.medium = labelled(rng, structure("verify_suite/4x6", 4, 6, 8, 1, 3))
        self.medium_file = write(workdir, "medium.soe", entity_text(self.medium, rng))
        prob = random_table(rng, 3, 3, 5, 1, 3)
        self.prob_file = write(workdir, "prob.soe", entity_text(prob, rng, {"mu": weighted_measure(rng, prob)}))
        # 25 couples: one more than the closure ground cap. Fixed, whatever the
        # seed, so the refusal is the same share of every run.
        self.refused = labelled(random.Random("verify_suite/5x5"), structure("verify_suite/5x5", 5, 5, 8, 1, 3))
        self.refused_file = write(workdir, "refused.soe", entity_text(self.refused))

    def ops(self) -> list:
        main = lambda argv: main_in_process(self.cli, argv)  # noqa: E731
        return [
            ("verify_medium", lambda: main(["verify", self.medium_file, "--structured"])),
            ("verify_probability", lambda: main(["verify", self.prob_file, "--structured"])),
            ("classify_fixture", lambda: main(["classify", FIXTURE, "--structured"])),
            ("classify_medium", lambda: main(["classify", self.medium_file, "--structured"])),
            ("verify_cq_sub_entity", lambda: self.quantum.verify_cq_sub_entity(2, 2, seed=self.seed)),
        ]

    def untimed_ops(self) -> list:
        return [("classify_5x5", lambda: main_in_process(self.cli, ["classify", self.refused_file, "--structured"]))]

    def check(self, name: str, out) -> None:
        if name.startswith("verify_") and name != "verify_cq_sub_entity":
            check_verdict(out, "verify.verdict", name)
        elif name.startswith("classify_"):
            table = {"classify_fixture": self.fixture, "classify_medium": self.medium,
                     "classify_5x5": self.refused}[name]
            check_flags(checkers.report_flags(out), table, name)
        else:
            require(out.passed, f"verify_cq_sub_entity: {out.failures}")
            residual = out.details["completed_max_residual"]
            require(residual <= 1e-9, f"completed_max_residual = {residual}")
            # no Bloch vector is closer than 1/(2 sqrt 3) to all three Pauli
            # marginals of the singlet
            floor = 1 / (2 * math.sqrt(3)) - 1e-9
            best = out.details["standard_ray_min_residual"]
            require(best >= floor, f"standard_ray_min_residual = {best} < {floor}")


class TableScan(Workload):
    """Parse and emit a 300x300 text, analyze a 16x16 file, and the five
    scalable determination and atomicity predicates at 300x300."""

    name = "table_scan"

    def load(self) -> None:
        self.cli = importlib.import_module("soe.cli")
        self.formats = importlib.import_module("soe.formats")
        self.classify = importlib.import_module("soe.classify")

    def make_inputs(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"table_scan/{seed}")
        self.big = random_table(rng, 300, 300, 16, 1, 3)
        self.big_text = entity_text(self.big, rng)
        self.analyzed = random_table(rng, 16, 16, 10, 1, 3)
        self.analyzed_file = write(workdir, "analyzed.soe", entity_text(self.analyzed, rng))
        self.parsed = None

    def expect(self) -> None:
        self.expected_flags = checkers.classify_flags(self.big, checkers.FIVE_PREDICATES)
        self.expected_counts = checkers.relation_counts(self.analyzed)
        self.emitted = None

    def parse(self):
        self.parsed = self.formats.parse_entity(self.big_text).entity
        return self.parsed

    def ops(self) -> list:
        predicates = [getattr(self.classify, f"is_{name}") for name in checkers.FIVE_PREDICATES]
        return [
            ("parse_entity", self.parse),
            ("emit_entity", lambda: self.formats.emit_entity(self.parsed)),
            ("analyze", lambda: main_in_process(self.cli, ["analyze", self.analyzed_file, "--structured"])),
            ("predicates", lambda: {
                name: predicate(self.parsed)[0] for name, predicate in zip(checkers.FIVE_PREDICATES, predicates)
            }),
        ]

    def check(self, name: str, out) -> None:
        if name == "parse_entity":
            t = self.big
            require(out.states == frozenset(t.states) and out.experiments == frozenset(t.experiments),
                    "parse_entity: wrong states or experiments")
            require(all(out.outcome_set(e, p) == cell for (e, p), cell in t.cells.items()),
                    "parse_entity: a cell differs from the text")
        elif name == "emit_entity":
            if self.emitted is None:
                again = self.formats.parse_entity(out).entity
                require(again == self.parsed, "parse_entity(emit_entity(e)) != e")
                self.emitted = out
            require(out == self.emitted, "emit_entity is not deterministic")
        elif name == "analyze":
            require(checkers.report_relation_counts(out) == self.expected_counts,
                    "analyze: relation pair counts differ from the table")
        else:
            for flag, value in out.items():
                require(value == self.expected_flags[flag], f"{flag} is {value}, the table says {self.expected_flags[flag]}")


WORKLOADS = {w.name: w for w in (CliSmall, ClosureBuild, VerifySuite, TableScan)}
