import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import soe.classify
from soe.classify import (
    ClassificationReport,
    classify,
    is_central_atomic,
    is_d_classical,
    is_experiment_atomic,
    is_experiment_determined,
    is_outcome_determined,
    is_state_atomic,
    is_state_determined,
    satisfies_T0,
    satisfies_T1,
)
from soe.cli import main
from soe.closure import ClosureSystem, eigen_closure_system
from soe.entity import Entity
from soe.errors import CapacityError, ConsistencyError
from soe.formats import emit_entity, parse_entity
from soe.mixture import full_mixed_entity

from conftest import random_d_classical_entity, random_entity
from oracles import powerset as subsets

SRC = str(Path(soe.classify.__file__).resolve().parents[1])


class TestDetermination:
    def test_worked(self, worked):
        assert is_outcome_determined(worked) == (True, None)
        assert is_state_determined(worked) == (True, None)
        assert is_experiment_determined(worked) == (True, None)

    def test_duplicate_rows(self):
        table = {("h", "s"): {"o1"}, ("h", "t"): {"o1"}}
        entity = Entity({"s", "t"}, {"h"}, table)
        flag, witness = is_outcome_determined(entity)
        assert not flag and witness == (("h", "s"), ("h", "t"))
        flag, witness = is_state_determined(entity)
        assert not flag and witness == ("s", "t")

    def test_clone_experiments(self):
        table = {("h", "s"): {"o1"}, ("k", "s"): {"o1"}}
        entity = Entity({"s"}, {"h", "k"}, table)
        flag, witness = is_experiment_determined(entity)
        assert not flag and witness == ("h", "k")

    def test_matches_T0_of_eigen_systems(self):
        rng = random.Random(51)
        for _ in range(30):
            entity = random_entity(rng, 4, 4, 6)
            assert is_outcome_determined(entity)[0] == satisfies_T0(
                eigen_closure_system(entity, "central")
            )[0]
            assert is_state_determined(entity)[0] == satisfies_T0(
                eigen_closure_system(entity, "states")
            )[0]
            assert is_experiment_determined(entity)[0] == satisfies_T0(
                eigen_closure_system(entity, "experiments")
            )[0]


class TestSeparationAxioms:
    def test_worked_central(self, worked):
        system = eigen_closure_system(worked, "central")
        assert satisfies_T0(system) == (True, None)
        flag, witness = satisfies_T1(system)
        assert not flag
        assert witness == ("e", "p")
        assert system.closure_of({("e", "p")}) == {("e", "p"), ("g", "q")}

    def test_discrete_system(self):
        ground = frozenset({"a", "b", "c"})
        discrete = ClosureSystem(ground, frozenset(subsets(ground)))
        assert satisfies_T1(discrete) == (True, None)
        assert satisfies_T0(discrete) == (True, None)

    def test_indiscrete_system(self):
        ground = frozenset({"a", "b"})
        indiscrete = ClosureSystem(ground, {frozenset(), ground})
        flag, witness = satisfies_T0(indiscrete)
        assert not flag and witness == ("a", "b")
        assert not satisfies_T1(indiscrete)[0]

    def test_T0_orders_points_of_mixed_types(self):
        # 1 and 'a' lie in the same generators; ints and strs have no common
        # order, so the points go by (type name, repr)
        system = ClosureSystem.generated({1, "a", 2}, [set(), {1, "a"}])
        assert satisfies_T0(system) == (False, (1, "a"))
        assert satisfies_T1(system) == (False, 1)
        # where a natural order exists it is kept: 9 before 10
        assert satisfies_T0(ClosureSystem.generated({10, 9, 2}, [set(), {10, 9}])) == (False, (9, 10))


    def test_T1_witness_ignores_the_hash_seed(self):
        # 1 and '1' have the same str; the type name breaks the tie
        code = (
            "from soe.classify import satisfies_T1\n"
            "from soe.closure import ClosureSystem\n"
            "print(satisfies_T1(ClosureSystem.generated({1, '1', 'b'}, [set(), {'b'}])))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        for seed in range(6):
            env["PYTHONHASHSEED"] = str(seed)
            result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
            assert result.stdout == "(False, 1)\n", (seed, result.stderr)


class TestAtomicity:
    def test_worked(self, worked):
        flag, witness = is_central_atomic(worked)
        assert not flag
        assert witness == (("e", "p"), ("g", "r"))
        assert is_state_atomic(worked) == (True, None)
        assert is_experiment_atomic(worked) == (True, None)

    def test_matches_T1(self):
        rng = random.Random(52)
        for _ in range(30):
            entity = random_entity(rng, 4, 4, 6)
            assert is_central_atomic(entity)[0] == satisfies_T1(
                eigen_closure_system(entity, "central")
            )[0]
            assert is_state_atomic(entity)[0] == satisfies_T1(
                eigen_closure_system(entity, "states")
            )[0]
            assert is_experiment_atomic(entity)[0] == satisfies_T1(
                eigen_closure_system(entity, "experiments")
            )[0]


class TestDClassical:
    def test_examples(self, worked, dpair):
        assert not is_d_classical(worked)
        assert is_d_classical(dpair)

    def test_full_mixture_breaks_it(self, dpair):
        assert not is_d_classical(full_mixed_entity(dpair))

    def test_random_d_classical_consequences(self):
        rng = random.Random(53)
        for _ in range(20):
            entity = random_d_classical_entity(rng)
            report = classify(entity)  # the cross-checks inside cover the theorems
            assert report.d_classical


class TestClassify:
    def test_worked_report(self, worked):
        report = classify(worked)
        assert report.flags() == {
            "outcome_determined": True,
            "state_determined": True,
            "experiment_determined": True,
            "central_atomic": False,
            "state_atomic": True,
            "experiment_atomic": True,
            "d_classical": False,
            "distinguishable": False,
        }
        assert set(report.witnesses) == {"central_atomic", "d_classical", "distinguishable"}
        assert report.witnesses["d_classical"] == ("e", "p")  # a two-outcome cell
        assert report.witnesses["distinguishable"] == ("e", "f")  # they share x2, x3

    def test_single_cell_entity(self):
        entity = Entity({"s"}, {"h"}, {("h", "s"): {"o"}})
        report = classify(entity)
        assert all(report.flags().values())
        assert report.witnesses == {}

    def test_injective_outcome_d_classical(self):
        # distinct singleton cells everywhere: all flags hold
        table = {
            ("h", "s"): {"o1"},
            ("h", "t"): {"o2"},
            ("k", "s"): {"o3"},
            ("k", "t"): {"o4"},
        }
        report = classify(Entity({"s", "t"}, {"h", "k"}, table))
        flags = report.flags()
        assert flags["d_classical"]
        assert all(flags[name] for name in (
            "outcome_determined", "state_determined", "experiment_determined",
            "central_atomic", "state_atomic", "experiment_atomic",
        ))

    def test_dpair_report(self, dpair):
        report = classify(dpair)
        flags = report.flags()
        assert flags["d_classical"] and flags["distinguishable"]
        assert not flags["outcome_determined"]  # the second experiment is constant
        assert not flags["central_atomic"]
        assert report.witnesses["outcome_determined"] == (("k", "s"), ("k", "t"))

    def test_report_is_dataclass_with_flags(self, worked):
        report = classify(worked)
        assert isinstance(report, ClassificationReport)
        assert report.witnesses["central_atomic"] == (("e", "p"), ("g", "r"))

    def test_cross_checks_run_on_random_entities(self):
        rng = random.Random(54)
        for _ in range(50):
            classify(random_entity(rng, 4, 4, 6))  # must not raise ConsistencyError


class TestCrossChecksFire:
    """A kernel that contradicts a theorem makes classify raise
    ConsistencyError naming the check, and `soe classify` exit 3."""

    def test_T1_that_disagrees_with_atomicity(self, worked, monkeypatch):
        real = soe.classify.satisfies_T1
        monkeypatch.setattr("soe.classify.satisfies_T1", lambda system: (not real(system)[0], None))
        with pytest.raises(ConsistencyError, match="central atomicity is T1 of the central system"):
            classify(worked)

    def test_T0_that_disagrees_with_determination(self, worked, monkeypatch):
        real = soe.classify.satisfies_T0
        monkeypatch.setattr("soe.classify.satisfies_T0", lambda system: (not real(system)[0], None))
        with pytest.raises(ConsistencyError, match="outcome determination is T0 of the central system"):
            classify(worked)

    def test_distinct_deterministic_states_that_are_not_orthogonal(self, dpair, tmp_path, monkeypatch, capsys):
        # s and t differ under h, so their views are distinct
        real = soe.classify.relation_views

        def never_orthogonal(entity, kind):
            view, _ = real(entity, kind)
            return view, lambda u, v: False

        monkeypatch.setattr("soe.classify.relation_views", never_orthogonal)
        message = "deterministic states are equivalent or orthogonal"
        with pytest.raises(ConsistencyError, match=message):
            classify(dpair)
        path = tmp_path / "dpair.soe"
        path.write_text(emit_entity(dpair))
        assert main(["classify", str(path)]) == 3
        assert message in capsys.readouterr().err


FIVE_BY_FIVE = Path(__file__).parent / "fixtures" / "five_by_five.soe"


class TestBeyondTheGroundCap:
    """25 couples, one more than the 24-element cap on listing members."""

    @pytest.fixture
    def five(self):
        return parse_entity(FIVE_BY_FIVE.read_text(encoding="utf-8")).entity

    def test_classify_lists_no_family(self, five):
        S, E, C = sorted(five.states), sorted(five.experiments), five.couples()
        cell = five.outcome_set
        row = lambda p: tuple(cell(e, p) for e in E)  # noqa: E731
        column = lambda e: tuple(cell(e, p) for p in S)  # noqa: E731
        inside = lambda u, v: all(x <= y for x, y in zip(u, v))  # noqa: E731
        total = lambda e: frozenset().union(*column(e))  # noqa: E731
        assert classify(five).flags() == {
            "outcome_determined": len({cell(*c) for c in C}) == len(C),
            "state_determined": len(set(map(row, S))) == len(S),
            "experiment_determined": len(set(map(column, E))) == len(E),
            "central_atomic": not any(a != b and cell(*a) <= cell(*b) for a in C for b in C),
            "state_atomic": not any(p != q and inside(row(p), row(q)) for p in S for q in S),
            "experiment_atomic": not any(e != f and inside(column(e), column(f)) for e in E for f in E),
            "d_classical": all(len(cell(*c)) == 1 for c in C),
            "distinguishable": not any(e < f and total(e) & total(f) for e in E for f in E),
        }

    def test_listing_the_central_family_is_refused(self, five):
        central = eigen_closure_system(five, "central")
        assert satisfies_T0(central)[0] == is_outcome_determined(five)[0]
        with pytest.raises(CapacityError):
            central.members

    def test_cli(self, capsys):
        assert main(["classify", str(FIVE_BY_FIVE), "--structured"]) == 0
        capsys.readouterr()
        assert main(["closures", str(FIVE_BY_FIVE), "--kind", "eigen", "--on", "central"]) == 2
        assert capsys.readouterr().err == "error: ground set of size 25 exceeds the cap of 24\n"
