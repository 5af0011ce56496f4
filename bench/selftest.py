"""Self-tests of the benchmark's referee. Run from the root of a soe checkout:

    python3 bench/selftest.py

The first group shows that the bitset closures, the classification flags and
the relation-pair counts of `checkers` agree with the brute-force oracles in
tests/oracles.py (and with soe) on small random entities. The second shows
that every workload's check rejects a corrupted output: one member removed,
one flag flipped, one verdict or number changed.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile
import unittest

sys.path[:0] = ["src", "tests"]

import checkers  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from soe.classify import classify  # noqa: E402
from soe.entity import Entity, RelationKind, orthogonal, relation_report  # noqa: E402

KINDS = {"states": RelationKind.state_global(), "experiments": RelationKind.experiment_global(),
         "central": RelationKind.central()}


def small_pairs(seed: int, count: int = 40):
    rng = random.Random(seed)
    for _ in range(count):
        n_outcomes = rng.randint(1, 6)
        t = workloads.random_table(rng, rng.randint(1, 4), rng.randint(1, 4), n_outcomes, 1, min(3, n_outcomes))
        yield t, Entity(t.states, t.experiments, t.cells)


def as_sets(ground, members):
    return {frozenset(a for i, a in enumerate(ground) if m >> i & 1) for m in members}


class CheckersAgreeWithOracles(unittest.TestCase):
    def test_eigen_families(self):
        for t, entity in small_pairs(1):
            for e in t.experiments:
                ground, members = checkers.family("eigen", t, "states", e)
                self.assertEqual(as_sets(ground, members), oracles.brute_eig_state_family(entity, e))
            for p in t.states:
                ground, members = checkers.family("eigen", t, "experiments", p)
                self.assertEqual(as_sets(ground, members), oracles.brute_eig_experiment_family(entity, p))
            ground, members = checkers.family("eigen", t, "central")
            self.assertEqual(as_sets(ground, members), oracles.brute_eig_central_family(entity))
            ground, members = checkers.family("eigen", t, "states")
            expected = oracles.brute_intersection_closure(
                entity.states, [oracles.brute_eig_state_family(entity, e) for e in entity.experiments]
            )
            self.assertEqual(as_sets(ground, members), expected)
            self.assertTrue(checkers.is_intersection_closed(members))

    def test_ortho_families(self):
        for t, entity in small_pairs(2):
            for on, kind in KINDS.items():
                ground, members = checkers.family("ortho", t, on)
                expected = oracles.brute_ortho_closed_sets(
                    frozenset(ground), lambda a, b, kind=kind: a != b and orthogonal(entity, kind, a, b)
                )
                self.assertEqual(as_sets(ground, members), expected)

    def test_global_testable_family(self):
        rng = random.Random(3)
        for _ in range(15):
            n_outcomes = rng.randint(2, 5)
            t = workloads.random_table(rng, rng.randint(1, 3), rng.randint(1, 2), n_outcomes, 1, 2)
            ground, members = checkers.global_testable_family(t)
            # the total mixed experiment over the full mixed entity, tabled by hand
            mixed = {}
            for bits in range(1, 2 ** len(t.states)):
                base = [p for i, p in enumerate(t.states) if bits >> i & 1]
                mixed[checkers.mixture_name(base)] = frozenset().union(
                    *(t.cells[(e, p)] for e in t.experiments for p in base)
                )
            total = Entity(mixed, {"E"}, {("E", m): cell for m, cell in mixed.items()})
            self.assertEqual(as_sets(ground, members), oracles.brute_eig_state_family(total, "E"))

    def test_classify_flags_and_relation_counts(self):
        for t, entity in small_pairs(4):
            self.assertEqual(checkers.classify_flags(t), classify(entity).flags())
            report = relation_report(entity)
            expected = {
                s.kind: (len(s.implications), len(s.orthogonalities))
                for s in report.sections
                if s.implications or s.orthogonalities
            }
            self.assertEqual(checkers.relation_counts(t), expected)


class ChecksRejectCorruptOutputs(unittest.TestCase):
    """Each workload's check passes the real output and rejects a corrupted copy."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(dir=".")
        self.addCleanup(self.tmp.cleanup)

    def prepared(self, cls):
        workload = cls()
        workload.load()
        workload.make_inputs(7, self.tmp.name)
        workload.expect()
        return workload

    def outputs(self, workload, ops, names):
        return {name: fn() for name, fn in ops if name in names}

    def assertRejected(self, workload, name, out):
        with self.assertRaises(workloads.CheckError):
            workload.check(name, out)

    def test_cli_small(self):
        workload = self.prepared(workloads.CliSmall)
        out = self.outputs(workload, workload.trace_ops(),
                           {"analyze", "closures_eigen", "classify", "verify", "qmachine"})
        for name, text in out.items():
            workload.check(name, text)
        member_rows = [line for line in out["closures_eigen"].splitlines() if ".member." in line]
        self.assertRejected(workload, "closures_eigen", out["closures_eigen"].replace(member_rows[-1] + "\n", ""))
        self.assertRejected(workload, "classify", flip_flag(out["classify"]))
        analyze_rows = out["analyze"].splitlines(keepends=True)
        self.assertRejected(workload, "analyze", "".join(analyze_rows[1:]))
        self.assertRejected(workload, "verify", out["verify"].replace("verify.verdict = pass", "verify.verdict = fail"))
        rows = checkers.structured_rows(out["qmachine"])
        p1 = rows["qmachine.hilbert.p1"]
        self.assertRejected(workload, "qmachine", out["qmachine"].replace(f"hilbert.p1 = {p1}", "hilbert.p1 = 0.5"))

    def test_closure_build(self):
        workload = self.prepared(workloads.ClosureBuild)
        name = "eigen.central.central"
        system = dict(workload.ops())[name]()
        workload.check(name, system)

        class Corrupt:
            ground = system.ground
            members = frozenset(sorted(system.members, key=len)[:-2] + sorted(system.members, key=len)[-1:])

        self.assertRejected(workload, name, Corrupt)
        sps_list = dict(workload.ops())["testable_sps"]()
        workload.check("testable_sps", sps_list)

        class CorruptSps:
            properties = frozenset(list(sps_list[0].properties)[1:])

        self.assertRejected(workload, "testable_sps", [CorruptSps] + sps_list[1:])

    def test_verify_suite(self):
        workload = self.prepared(workloads.VerifySuite)
        ops = dict(workload.ops())
        text = ops["classify_fixture"]()
        workload.check("classify_fixture", text)
        self.assertRejected(workload, "classify_fixture", flip_flag(text))
        verdict = ops["verify_probability"]()
        workload.check("verify_probability", verdict)
        self.assertRejected(workload, "verify_probability", verdict.replace("verdict = pass", "verdict = fail"))
        diag = ops["verify_cq_sub_entity"]()
        workload.check("verify_cq_sub_entity", diag)
        diag.details["standard_ray_min_residual"] = 0.25
        self.assertRejected(workload, "verify_cq_sub_entity", diag)

    def test_table_scan(self):
        workload = self.prepared(workloads.TableScan)
        ops = workload.ops()
        out = {name: fn() for name, fn in ops if name != "analyze"}
        for name, value in out.items():
            workload.check(name, value)
        flipped = dict(out["predicates"])
        flipped["state_determined"] = not flipped["state_determined"]
        self.assertRejected(workload, "predicates", flipped)
        self.assertRejected(workload, "emit_entity", out["emit_entity"].rsplit("\n", 2)[0] + "\n")


def flip_flag(text: str) -> str:
    """Flip the first true/false flag of a classify report."""
    for old, new in ((" = true\n", " = false\n"), (" = false\n", " = true\n")):
        if old in text:
            return text.replace(old, new, 1)
    raise AssertionError("no flag to flip")


if __name__ == "__main__":
    if not os.path.isfile(os.path.join("src", "soe", "cli.py")):
        sys.exit("bench/selftest.py: run it from the root of a soe checkout")
    unittest.main()
