import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import soe
import soe.cli
import soe.morphism
from soe.cli import main
from soe.closure import ClosureSystem, _holder_index, _Order, eigen_closure_system
from soe.entity import Entity, RelationKind, orthogonal
from soe.examples import deterministic_pair, three_by_three
from soe.formats import emit_entity
from soe.morphism import verify_sub_entity
from soe.probability import ProbabilityTable
from soe.statprop import StatePropertySystem, testable_sps

from oracles import brute_ortho_closed_sets

SRC = str(Path(soe.__file__).resolve().parents[1])
FIXTURES = Path(__file__).parent / "fixtures"


def soe_subprocess(argv, **env):
    """`python -m soe.cli ARGV` in a fresh process that imports soe from this
    checkout, with the given environment variables set and SOE_SEED unset
    unless given."""
    environment = {key: value for key, value in os.environ.items() if key != "SOE_SEED"}
    environment["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    environment.update(env)
    return subprocess.run([sys.executable, "-m", "soe.cli", *argv], capture_output=True, text=True, env=environment)


def random_12x12_file(tmp_path):
    """A random 12x12 entity over 16 outcomes, 1-3 per cell, written as a file."""
    rng = random.Random(12)
    outcomes = [f"x{i}" for i in range(16)]
    table = {(f"e{i}", f"p{j}"): rng.sample(outcomes, rng.randint(1, 3)) for i in range(12) for j in range(12)}
    path = tmp_path / "random.soe"
    path.write_text(emit_entity(Entity({p for _, p in table}, {e for e, _ in table}, table)), encoding="utf-8")
    return path


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.soe"
    path.write_text(emit_entity(three_by_three()), encoding="utf-8")
    return str(path)


@pytest.fixture
def pair_files(tmp_path):
    small = deterministic_pair()
    small_path = tmp_path / "small.soe"
    small_path.write_text(emit_entity(small), encoding="utf-8")
    big_table = {
        ("H", "S"): {"UP"},
        ("H", "T"): {"DOWN"},
        ("K", "S"): {"LEFT"},
        ("K", "T"): {"LEFT"},
    }
    from soe.entity import Entity

    big = Entity({"S", "T"}, {"H", "K"}, big_table)
    big_path = tmp_path / "big.soe"
    big_path.write_text(emit_entity(big), encoding="utf-8")
    witness_path = tmp_path / "witness.soe"
    witness_path.write_text(
        "[witness]\n"
        "m S = s\nm T = t\n"
        "n h = H\nn k = K\n"
        "l up = UP\nl down = DOWN\nl left = LEFT\n",
        encoding="utf-8",
    )
    return str(small_path), str(big_path), str(witness_path)


class TestClosuresCommand:
    def test_worked_state_family(self, worked_file, capsys):
        code = main(["closures", worked_file, "--kind", "eigen", "--on", "states"])
        out = capsys.readouterr().out
        assert code == 0
        for member in ("{}", "{p}", "{q}", "{r}", "{p,q}", "{p,r}", "{p,q,r}"):
            assert f"  {member}\n" in out
        assert "members: 7" in out

    def test_scoped_ortho(self, worked_file, capsys):
        code = main(["closures", worked_file, "--kind", "ortho", "--on", "states", "--for", "e"])
        out = capsys.readouterr().out
        assert code == 0
        assert "members: 2" in out

    def test_structured_output(self, worked_file, capsys):
        code = main(["closures", worked_file, "--kind", "eigen", "--on", "states", "--structured"])
        out = capsys.readouterr().out
        assert code == 0
        assert "closures.size = 7" in out
        assert "closures.member.0 = {}" in out

    def test_outcome_closures(self, worked_file, capsys):
        assert main(["closures", worked_file, "--kind", "eigen", "--on", "outcomes"]) == 0
        assert main(["closures", worked_file, "--kind", "ortho", "--on", "outcomes"]) == 0
        capsys.readouterr()

    def test_ortho_outcomes_for_a_couple(self, worked_file, capsys):
        code = main(["closures", worked_file, "--kind", "ortho", "--on", "outcomes", "--for", "e,p", "--structured"])
        rows = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
        assert code == 0 and rows["closures.scope"] == "e,p"
        listed = {
            frozenset(filter(None, value.strip("{}").split(",")))
            for key, value in rows.items()
            if key.startswith("closures.member.")
        }
        entity, kind = three_by_three(), RelationKind.outcome_for("e", "p")
        expected = brute_ortho_closed_sets(entity.outcomes, lambda a, b: orthogonal(entity, kind, a, b))
        assert listed == expected and rows["closures.size"] == str(len(expected))

    @pytest.mark.parametrize("scope", ["e", "ep", "e,p,q", "zz,p", "e,zz"])
    def test_ortho_outcomes_for_anything_else_exits_2(self, worked_file, capsys, scope):
        code = main(["closures", worked_file, "--kind", "ortho", "--on", "outcomes", "--for", scope])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_deterministic_bytes(self, worked_file, capsys):
        main(["closures", worked_file, "--kind", "eigen", "--on", "central"])
        first = capsys.readouterr().out
        main(["closures", worked_file, "--kind", "eigen", "--on", "central"])
        second = capsys.readouterr().out
        assert first == second


class TestClassifyCommand:
    def test_worked_flags(self, worked_file, capsys):
        code = main(["classify", worked_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "outcome_determined = true" in out
        assert "central_atomic = false" in out
        assert "distinguishable = false" in out
        assert "witness[central_atomic] = (e,p) , (g,r)" in out

    def test_structured(self, worked_file, capsys):
        main(["classify", worked_file, "--structured"])
        out = capsys.readouterr().out
        assert "classify.state_atomic = true" in out


class TestAnalyzeCommand:
    def test_contains_relations(self, worked_file, capsys):
        code = main(["analyze", worked_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "(g,q) < (e,p)" in out
        assert "(e,p) | (f,p)" in out

    def test_structured(self, worked_file, capsys):
        main(["analyze", worked_file, "--structured"])
        out = capsys.readouterr().out
        assert "analyze.central.implication.0 = " in out


class TestQmachineCommand:
    def test_third_angle(self, capsys):
        code = main(["qmachine", "--theta", "1.0471975511965976", "--phi", "0", "--axis-theta", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "p1 = 0.75" in out

    def test_center(self, capsys):
        main(["qmachine", "--theta", "0", "--phi", "0", "--radius", "0"])
        out = capsys.readouterr().out
        assert "p1 = 0.5" in out

    def test_structured_matches_elastic_and_hilbert(self, capsys):
        main(
            [
                "qmachine",
                "--theta", "0.7", "--phi", "1.2", "--radius", "0.4",
                "--axis-theta", "0.3", "--axis-phi", "2.2",
                "--structured",
            ]
        )
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["qmachine.max_difference"]) <= 1e-10
        assert abs(
            float(values["qmachine.elastic.p1"]) + float(values["qmachine.elastic.p2"]) - 1.0
        ) <= 1e-12

    def test_an_infinite_angle_exits_2_with_one_line(self):
        # in a fresh process, so that no warning filter of the test run hides
        # what numpy would write to stderr
        result = soe_subprocess(["qmachine", "--theta", "inf", "--phi", "0"])
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: a ball state's angles and radius must be finite, got (inf, 0.0, 1.0)"]


class TestVerifyCommand:
    def test_worked_passes(self, worked_file, capsys):
        code = main(["verify", worked_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: pass" in out

    def test_measure_checked(self, tmp_path, capsys):
        text = emit_entity(three_by_three()) + "[probability bad]\ne p x1 = 0.25\n"
        path = tmp_path / "bad.soe"
        path.write_text(text, encoding="utf-8")
        code = main(["verify", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "verdict: FAIL" in out

    @pytest.mark.parametrize("source", ["five_by_five", "random_12x12"])
    def test_over_24_couples_reports_every_check(self, source, tmp_path, capsys):
        if source == "five_by_five":
            path = Path(__file__).parent / "fixtures" / "five_by_five.soe"
        else:
            path = random_12x12_file(tmp_path)
        code = main(["verify", str(path), "--structured"])
        rows = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "verify.closures.axioms.central_eigen = pass" in rows
        assert "verify.closures.axioms.state_trace_of_central = pass" in rows
        assert "verify.verdict = pass" in rows

    def test_report_ignores_the_hash_seed(self, tmp_path):
        rng = random.Random(46)
        outcomes = [f"x{i}" for i in range(8)]
        table = {(f"e{i}", f"p{j}"): rng.sample(outcomes, rng.randint(1, 3)) for i in range(6) for j in range(4)}
        medium = tmp_path / "medium.soe"
        medium.write_text(emit_entity(Entity({p for _, p in table}, {e for e, _ in table}, table)), encoding="utf-8")
        for path in (Path(__file__).parent / "fixtures" / "three_by_three.soe", medium):
            runs = [soe_subprocess(["verify", str(path), "--structured"], PYTHONHASHSEED=str(seed)) for seed in range(4)]
            assert runs[0].returncode == 0, runs[0].stderr
            assert "verify.verdict = pass" in runs[0].stdout.splitlines()
            assert all(run.stdout == runs[0].stdout for run in runs[1:])

    def test_axioms_ask_the_kernel_operator(self, worked_file, capsys, monkeypatch):
        # the mask operator every closure query asks drops the str-least item
        # of K from the closure of every K of two or more elements
        close = ClosureSystem._close

        def broken(system, k):
            order = system._order
            K = order.decode(k)
            return close(system, k) & ~order.mask({min(K, key=str)}) if len(K) > 1 else close(system, k)

        monkeypatch.setattr(ClosureSystem, "_close", broken)
        code = main(["verify", worked_file, "--structured"])
        out = capsys.readouterr().out
        rows = out.splitlines()
        assert code == 1
        assert any(row.startswith("verify.closures.axioms.") and row.endswith(" = fail") for row in rows)
        assert any(row.startswith("verify.failure.") and "= closures.axioms." in row for row in rows)
        # every check row, listed failure and the suppressed count, as before
        # the checks recorded only their failing instances
        assert out == (FIXTURES / "verify_broken_closure_of.txt").read_text(encoding="utf-8")

    def test_axioms_test_the_generator_masks(self, worked_file, capsys, monkeypatch):
        # one generator of the global experiment system carries the bit past
        # its order; every closure is cut by the full mask, so cl({}) stays
        # empty, and decoding the generator would drop the stray bit
        eigen = eigen_closure_system

        def stray_bit(entity, on, scoped_to=None):
            system = eigen(entity, on, scoped_to)
            if (on, scoped_to) != ("experiments", None):
                return system
            order, gens = system._order, set(system._gens)
            gens.add(gens.pop() | order.full + 1)
            return ClosureSystem._of_masks(order, gens)

        monkeypatch.setattr("soe.cli.eigen_closure_system", stray_bit)
        code = main(["verify", worked_file, "--structured"])
        rows = capsys.readouterr().out.splitlines()
        assert code == 1
        assert "verify.closures.axioms.experiment_eigen = fail" in rows
        failed = [row.split(" = ", 1)[1] for row in rows if row.startswith("verify.failure.")]
        assert failed == ["closures.axioms.experiment_eigen: a generator leaves the ground set"]

    def test_decodes_no_generator(self, tmp_path, capsys, monkeypatch):
        # the central ortho system of a large table has hundreds of generators
        # of thousands of couples each: verify tests their masks, and
        # state_trace reads the central eigen system's masks too, so no
        # system is asked for its generators and no mask is decoded
        generators, decode = ClosureSystem.generators, _Order.decode
        asked = []
        monkeypatch.setattr(ClosureSystem, "generators", property(lambda system: asked.append(system) or generators.fget(system)))
        monkeypatch.setattr(_Order, "decode", lambda order, A: asked.append(A) or decode(order, A))
        code = main(["verify", str(random_12x12_file(tmp_path)), "--structured"])
        assert code == 0, capsys.readouterr().out
        assert asked == []

    def test_transitivity_asks_the_kernel_relation(self, worked_file, capsys, monkeypatch):
        # (e,p) < (e,q) < (e,r) but not (e,p) < (e,r): reflexive, not transitive
        worked = three_by_three()
        a, b, c = ((worked.outcome_set("e", p),) for p in "pqr")
        monkeypatch.setattr("soe.cli.view_implies", lambda u, v: u == v or (u, v) in {(a, b), (b, c)})
        code = main(["verify", worked_file, "--structured"])
        out = capsys.readouterr().out
        rows = out.splitlines()
        assert code == 1
        assert "verify.relations.transitive = fail" in rows
        assert "verify.relations.reflexive = pass" in rows
        assert out == (FIXTURES / "verify_broken_transitivity.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("mutant", ["orthogonal_to_itself", "orthogonal_one_way", "implies_strictly"])
    def test_relation_axioms_ask_the_kernel_views(self, worked_file, capsys, monkeypatch, mutant):
        # each kernel relation breaks one axiom; the stage reads the views and
        # the orthogonality of relation_views, and view_implies
        relation_views, view_implies = soe.cli.relation_views, soe.cli.view_implies

        def mutated_views(orthogonal):
            def views(entity, kind):
                view, real = relation_views(entity, kind)
                return view, lambda u, v: orthogonal(real, u, v)

            return views

        if mutant == "orthogonal_to_itself":
            monkeypatch.setattr("soe.cli.relation_views", mutated_views(lambda real, u, v: u == v or real(u, v)))
        elif mutant == "orthogonal_one_way":
            monkeypatch.setattr("soe.cli.relation_views", mutated_views(lambda real, u, v: real(u, v) and sorted(*u) < sorted(*v)))
        else:
            monkeypatch.setattr("soe.cli.view_implies", lambda u, v: u != v and view_implies(u, v))
        code = main(["verify", worked_file, "--structured"])
        rows = capsys.readouterr().out.splitlines()
        couples = [f"({e},{p})" for e in "efg" for p in "pqr"]
        expected = {
            "orthogonal_to_itself": (
                ["antireflexive", "implies_never_orthogonal"],
                [f"antireflexive: {a}" for a in couples] + [f"implies_never_orthogonal: {a} < {a}" for a in couples],
            ),
            "orthogonal_one_way": (
                ["symmetric"],
                [
                    f"symmetric: ({a}) | ({b})"
                    for a, b in [
                        ("e,p", "f,p"), ("e,p", "f,r"), ("e,q", "f,p"), ("e,q", "f,q"), ("e,q", "g,q"), ("e,r", "f,p"),
                        ("g,p", "e,r"), ("g,p", "f,q"), ("g,p", "g,q"), ("g,q", "f,p"), ("g,q", "f,r"),
                    ]
                ],
            ),
            "implies_strictly": (["reflexive"], [f"reflexive: {a}" for a in couples]),
        }[mutant]
        assert code == 1
        assert [row for row in rows if row.endswith(" = fail") and row != "verify.verdict = fail"] == [
            f"verify.relations.{name} = fail" for name in expected[0]
        ]
        assert [row.split(" = ", 1)[1] for row in rows if row.startswith("verify.failure.")] == [
            f"relations.{failure}" for failure in expected[1]
        ]

    @pytest.mark.parametrize("mutant", ["drop_coatom", "other_row"])
    def test_cartan_check_reads_the_testable_system(self, worked_file, capsys, monkeypatch, mutant):
        # a testable system missing the least outcome's coatom is not the
        # eigen family of e or f (g's coatom of x1 is also that of y1), and
        # one read from the next experiment's row is that of no experiment
        def drop_coatom(entity, e):
            index = _holder_index(entity)
            order, has = index.states, dict(index.rows("states")[e])
            del has[min(has)]
            return StatePropertySystem._of_masks(order, has)

        def other_row(entity, e):
            experiments = sorted(entity.experiments)
            return testable_sps(entity, experiments[(experiments.index(e) + 1) % len(experiments)])

        monkeypatch.setattr("soe.cli.testable_sps", {"drop_coatom": drop_coatom, "other_row": other_row}[mutant])
        code = main(["verify", worked_file, "--structured"])
        rows = capsys.readouterr().out.splitlines()
        assert code == 1
        assert "verify.properties.cartan_image_is_eigen_family = fail" in rows
        failed = [row.rsplit(" ", 1)[1] for row in rows if "= properties.cartan_image_is_eigen_family:" in row]
        assert failed == {"drop_coatom": ["e", "f"], "other_row": ["e", "f", "g"]}[mutant]


class TestSubentityCommand:
    def test_pass(self, pair_files, capsys):
        small, big, witness = pair_files
        code = main(["subentity", small, big, "--witness", witness])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: pass" in out

    def test_the_core_check_runs_once(self, pair_files, monkeypatch, capsys):
        calls = []

        def counted(*args):
            calls.append(args)
            return verify_sub_entity(*args)

        monkeypatch.setattr(soe.cli, "verify_sub_entity", counted)
        monkeypatch.setattr(soe.morphism, "verify_sub_entity", counted)
        small, big, witness = pair_files
        assert main(["subentity", small, big, "--witness", witness, "--structured"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(calls) == 1
        assert "subentity.continuity.continuity.generator_identity = pass" in rows

    def test_fail_exit_code(self, pair_files, tmp_path, capsys):
        small, big, witness = pair_files
        bad = tmp_path / "bad_witness.soe"
        bad.write_text(
            "[witness]\nm S = s\nm T = t\nn h = H\nn k = K\n"
            "l up = UP\nl down = UP\nl left = LEFT\n",
            encoding="utf-8",
        )
        code = main(["subentity", small, big, "--witness", str(bad)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "suppressed" not in out  # one failure, under the cap
        capsys.readouterr()

    def test_over_24_states_checks_continuity_without_listing(self, tmp_path, capsys):
        rng = random.Random(2)
        outcomes = ["x0", "x1", "x2", "x3", "x4", "x5"]
        table = {(f"e{i}", f"p{j}"): rng.sample(outcomes, rng.randint(1, 2)) for i in range(3) for j in range(25)}
        entity = Entity({p for _, p in table}, {e for e, _ in table}, table)
        path = tmp_path / "entity.soe"
        path.write_text(emit_entity(entity), encoding="utf-8")
        witness = tmp_path / "identity.soe"
        witness.write_text(
            "[witness]\n"
            + "".join(f"m {p} = {p}\n" for p in sorted(entity.states))
            + "".join(f"n {e} = {e}\n" for e in sorted(entity.experiments))
            + "".join(f"l {x} = {x}\n" for x in sorted(entity.outcomes)),
            encoding="utf-8",
        )
        code = main(["subentity", str(path), str(path), "--witness", str(witness), "--structured"])
        rows = capsys.readouterr().out.splitlines()
        assert code == 0
        for check in ("generator_identity", "m_preimages_closed", "n_preimages_closed"):
            assert f"subentity.continuity.continuity.{check} = pass" in rows
        assert "subentity.verdict = pass" in rows


class TestSuppressedFailures:
    def test_failures_past_the_cap_are_counted(self, tmp_path, capsys):
        # l rotates the outcomes, so every one of the 36 cells fails the
        # bijection check; 10 are listed and the other 26 counted
        from soe.entity import Entity

        n = 6
        entity = Entity(
            [f"s{j}" for j in range(n)],
            [f"h{i}" for i in range(n)],
            {(f"h{i}", f"s{j}"): {f"x{(i + j) % n}"} for i in range(n) for j in range(n)},
        )
        path = tmp_path / "entity.soe"
        path.write_text(emit_entity(entity), encoding="utf-8")
        witness = tmp_path / "witness.soe"
        witness.write_text(
            "[witness]\n"
            + "".join(f"m s{j} = s{j}\nn h{j} = h{j}\nl x{j} = x{(j + 1) % n}\n" for j in range(n)),
            encoding="utf-8",
        )
        code = main(["subentity", str(path), str(path), "--witness", str(witness), "--structured"])
        rows = capsys.readouterr().out.splitlines()
        assert code == 1
        assert sum(row.startswith("subentity.witness.failure.") for row in rows) == 10
        assert "subentity.witness.suppressed = 26" in rows


class TestProbabilisticSubentity:
    def test_measure_transport_via_files(self, tmp_path, capsys):
        from soe.entity import Entity
        from soe.probability import d_classical_measure

        small = deterministic_pair()
        big = Entity(
            {"S", "T"},
            {"H", "K"},
            {
                ("H", "S"): {"UP"},
                ("H", "T"): {"DOWN"},
                ("K", "S"): {"LEFT"},
                ("K", "T"): {"LEFT"},
            },
        )
        small_path = tmp_path / "small.soe"
        small_path.write_text(
            emit_entity(small, {"mu": d_classical_measure(small)}) + "[witness]\nk mu = nu\n",
            encoding="utf-8",
        )
        big_path = tmp_path / "big.soe"
        big_path.write_text(emit_entity(big, {"nu": d_classical_measure(big)}), encoding="utf-8")
        witness_path = tmp_path / "w.soe"
        witness_path.write_text(
            "[witness]\nm S = s\nm T = t\nn h = H\nn k = K\n"
            "l up = UP\nl down = DOWN\nl left = LEFT\n",
            encoding="utf-8",
        )
        code = main(
            ["subentity", str(small_path), str(big_path), "--witness", str(witness_path), "--probabilistic"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: pass" in out
        assert "k.transport_identity" in out

    def test_broken_measure_lists_every_failing_triple(self, tmp_path, capsys):
        # the two measures differ on four triples; each failure names its
        # triple and values, in (experiment, state, outcome) order
        entity = Entity(
            {"p", "q"},
            {"e", "f"},
            {("e", "p"): {"x", "y"}, ("e", "q"): {"x"}, ("f", "p"): {"z"}, ("f", "q"): {"z", "w"}},
        )
        mu = ProbabilityTable({("e", "p", "x"): 0.25, ("e", "p", "y"): 0.75, ("e", "q", "x"): 1,
                               ("f", "p", "z"): 1, ("f", "q", "z"): 0.5, ("f", "q", "w"): 0.5})
        nu = ProbabilityTable({("e", "p", "x"): 0.5, ("e", "p", "y"): 0.5, ("e", "q", "x"): 1,
                               ("f", "p", "z"): 1, ("f", "q", "z"): 0.1, ("f", "q", "w"): 0.9})
        small_path, big_path, witness_path = (tmp_path / name for name in ("small.soe", "big.soe", "w.soe"))
        small_path.write_text(emit_entity(entity, {"mu": mu}) + "[witness]\nk mu = nu\n", encoding="utf-8")
        big_path.write_text(emit_entity(entity, {"nu": nu}), encoding="utf-8")
        witness_path.write_text(
            "[witness]\nm p = p\nm q = q\nn e = e\nn f = f\n" + "".join(f"l {x} = {x}\n" for x in "wxyz"),
            encoding="utf-8",
        )
        argv = ["subentity", str(small_path), str(big_path), "--witness", str(witness_path), "--probabilistic"]
        code = main([*argv, "--structured"])
        out = capsys.readouterr().out
        assert code == 1
        assert out == (FIXTURES / "subentity_broken_measure.txt").read_text(encoding="utf-8")


class TestQuantumEntityEndToEnd:
    def test_sampled_quantum_entity_passes_verify(self, tmp_path, capsys):
        import numpy as np

        from soe.quantum import finite_completed_entity, random_density, random_spectral_family

        rng = np.random.default_rng(13)
        entity, measure = finite_completed_entity(
            [random_density(rng, 2) for _ in range(3)],
            [random_spectral_family(rng, 2) for _ in range(2)],
        )
        path = tmp_path / "quantum.soe"
        path.write_text(emit_entity(entity, {"born": measure}), encoding="utf-8")
        code = main(["verify", str(path)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "pass probability.born" in out
        assert "verdict: pass" in out


class TestErrorPaths:
    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.soe"
        path.write_text("[entity]\nstates = s\n", encoding="utf-8")
        code = main(["classify", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_duplicate_witness_entry_exits_2(self, pair_files, tmp_path, capsys):
        small, big, _ = pair_files
        witness = tmp_path / "witness.soe"
        witness.write_text("[witness]\nm S = s\nm S = t\n", encoding="utf-8")
        code = main(["subentity", small, big, "--witness", str(witness)])
        err = capsys.readouterr().err
        assert code == 2
        assert "duplicate witness entry m S (line 3)" in err

    def test_consistency_error_exits_3(self, worked_file, capsys, monkeypatch):
        from soe.errors import ConsistencyError

        def contradicted(entity, **prebuilt):
            raise ConsistencyError("classification cross-check failed: test (kernel bug)")

        monkeypatch.setattr("soe.cli.classify", contradicted)
        for command in ("classify", "verify"):
            code = main([command, worked_file])
            err = capsys.readouterr().err
            assert code == 3
            assert "error: classification cross-check failed" in err

    def test_missing_file_exits_2(self, capsys):
        code = main(["classify", "/nonexistent/entity.soe"])
        assert code == 2
        capsys.readouterr()

    def test_seed_env_var(self, worked_file, capsys, monkeypatch):
        monkeypatch.setenv("SOE_SEED", "7")
        code = main(["verify", worked_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "(seed 7)" in out
        monkeypatch.setenv("SOE_SEED", "9")
        code = main(["--seed", "11", "verify", worked_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "(seed 11)" in out  # the explicit flag wins

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_seed_env_var_not_an_integer_exits_2(self, worked_file, capsys, monkeypatch, command):
        monkeypatch.setenv("SOE_SEED", "abc")
        code = main([command, worked_file])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: SOE_SEED must be an integer, got 'abc'\n"
        code = main(["--seed", "5", "verify", worked_file])
        assert code == 0
        assert "(seed 5)" in capsys.readouterr().out  # the flag wins over a bad variable

    def test_subprocess_entry_point(self, worked_file):
        result = soe_subprocess(["classify", worked_file])
        assert result.returncode == 0
        assert "outcome_determined = true" in result.stdout
        assert result.stderr == ""


class TestSuccessiveCalls:
    """One process builds the parser once; every call still answers as a
    fresh process does."""

    def run_in_process(self, argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse refusals
            code = exit_.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def run_fresh(self, argv, **env):
        result = soe_subprocess(argv, COLUMNS="80", **env)
        return result.returncode, result.stdout, result.stderr

    def test_usage_error_then_a_valid_call(self, worked_file, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("SOE_SEED", raising=False)
        calls = [
            ["closures", worked_file, "--on", "states"],
            ["classify", worked_file, "--structured"],
            ["frobnicate"],
            ["closures", worked_file, "--kind", "eigen", "--on", "states"],
        ]
        results = [self.run_in_process(argv, capsys) for argv in calls]
        assert [code for code, _, _ in results] == [2, 0, 2, 0]
        assert results == [self.run_fresh(argv) for argv in calls]

    def test_seed_flag_then_the_variable(self, worked_file, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("SOE_SEED", raising=False)
        first = self.run_in_process(["--seed", "11", "verify", worked_file], capsys)
        monkeypatch.setenv("SOE_SEED", "7")
        second = self.run_in_process(["verify", worked_file], capsys)
        assert "(seed 11)" in first[1] and "(seed 7)" in second[1]
        assert first == self.run_fresh(["--seed", "11", "verify", worked_file])
        assert second == self.run_fresh(["verify", worked_file], SOE_SEED="7")
