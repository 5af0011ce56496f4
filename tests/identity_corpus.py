"""The identity corpus: every CLI command over a fixed, seeded set of entity
files, each run in-process and reduced to one sha256 of (exit code, stdout,
stderr).

`tests/test_identity.py` recomputes the hashes and compares them with
`tests/identity_hashes.json`. Regenerate that file only for a deliberate
change of output, and say which commands changed and why:

    PYTHONPATH=src python tests/identity_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from soe.cli import main
from soe.entity import Entity
from soe.formats import emit_entity, parse_entity
from soe.probability import ProbabilityTable

FIXTURES = Path(__file__).parent / "fixtures"
HASHES = Path(__file__).parent / "identity_hashes.json"


def _random_table(rng, states, experiments, outcomes, lo, hi) -> Entity:
    table = {(e, p): set(rng.sample(outcomes, rng.randint(lo, hi))) for e in experiments for p in states}
    return Entity(states, experiments, table)


def _random(seed, n_states, n_experiments, n_outcomes, lo=1, hi=3, states=None, experiments=None) -> Entity:
    rng = random.Random(seed)
    states = states or [f"p{i}" for i in range(n_states)]
    experiments = experiments or [f"e{i}" for i in range(n_experiments)]
    return _random_table(rng, states, experiments, [f"x{i}" for i in range(n_outcomes)], lo, min(hi, n_outcomes))


def _distinguishable(seed, n_states, n_experiments, per_experiment) -> Entity:
    rng = random.Random(seed)
    states = [f"p{i}" for i in range(n_states)]
    table = {}
    for i in range(n_experiments):
        alphabet = [f"e{i}.x{k}" for k in range(per_experiment)]
        for p in states:
            table[(f"e{i}", p)] = set(rng.sample(alphabet, rng.randint(1, per_experiment)))
    return Entity(states, [f"e{i}" for i in range(n_experiments)], table)


def _uniform_measure(entity: Entity, skew: float = 0.0) -> ProbabilityTable:
    """Equal weights over each cell; skew moves weight inside two-outcome
    cells (a valid measure whatever the skew in [0, 0.5])."""
    entries = {}
    for (e, p), cell in entity.cells():
        cell = sorted(cell)
        for x in cell:
            entries[(e, p, x)] = 1.0 / len(cell)
        if len(cell) == 2:
            entries[(e, p, cell[0])] += skew
            entries[(e, p, cell[1])] -= skew
    return ProbabilityTable(entries)


def entity_files() -> dict:
    """File name -> text of every corpus entity: the three fixtures and the
    generated entities, all seeded."""
    files = {name: (FIXTURES / name).read_text(encoding="utf-8")
             for name in ("three_by_three.soe", "deterministic_pair.soe", "five_by_five.soe")}
    generated = {
        "random_2x2.soe": _random(1, 2, 2, 3),
        "random_3x3.soe": _random(2, 3, 3, 5),
        "random_3x4.soe": _random(3, 3, 4, 6),
        "random_4x4.soe": _random(4, 4, 4, 8),
        "random_4x6.soe": _random(5, 4, 6, 8),
        "random_1x3.soe": _random(6, 1, 3, 4),
        "random_5x5_wide.soe": _random(7, 5, 5, 12, 1, 4),
        "random_6x5.soe": _random(8, 6, 5, 6),
        "random_9x9.soe": _random(17, 9, 9, 6),  # 81 couples, past one 64-bit word; cells repeat
        "dclassical_3x3.soe": _random(9, 3, 3, 3, 1, 1),
        "dclassical_4x4.soe": _random(10, 4, 4, 6, 1, 1),
        "dclassical_5x4.soe": _random(11, 5, 4, 2, 1, 1),
        "dclassical_6x4.soe": _random(12, 6, 4, 9, 1, 1),
        "plus_ids.soe": _random(13, 0, 0, 5, states=["a", "b", "a+b"], experiments=["f", "g", "f+g"]),
        "plus_dclassical.soe": _random(14, 0, 0, 4, 1, 1, states=["u+v", "u", "v"], experiments=["h+k", "k"]),
        "distinguishable.soe": _distinguishable(15, 4, 3, 3),
    }
    for name, entity in generated.items():
        files[name] = emit_entity(entity)
    measured = _random(16, 3, 3, 4, 1, 2)
    files["probability.soe"] = emit_entity(
        measured, {"mu": _uniform_measure(measured), "nu": _uniform_measure(measured, 0.25)}
    )
    # an invalid table: the cells are not normalized
    broken = {(e, p, x): 0.5 for (e, p), cell in measured.cells() for x in sorted(cell)}
    files["probability_bad.soe"] = emit_entity(measured, {"mu": ProbabilityTable(broken)})
    # k lines live in the small entity's file
    files["probability_k.soe"] = files["probability.soe"] + "[witness]\nk mu = nu\n"
    files.update(_subentity_files())
    return files


def _subentity_files() -> dict:
    """The sub-entity pair of the CLI tests and a measured identity pair."""
    big = Entity({"S", "T"}, {"H", "K"}, {
        ("H", "S"): {"UP"}, ("H", "T"): {"DOWN"}, ("K", "S"): {"LEFT"}, ("K", "T"): {"LEFT"},
    })
    return {
        "pair_big.soe": emit_entity(big),
        "pair.witness": "[witness]\nm S = s\nm T = t\nn h = H\nn k = K\nl up = UP\nl down = DOWN\nl left = LEFT\n",
        "pair_swapped.witness": "[witness]\nm S = t\nm T = s\nn h = H\nn k = K\nl up = UP\nl down = DOWN\nl left = LEFT\n",
        "pair_partial.witness": "[witness]\nm S = s\nn h = H\nn k = K\nl up = UP\nl down = DOWN\nl left = LEFT\n",
        "probability_self.witness": "[witness]\n"
        + "".join(f"m p{i} = p{i}\n" for i in range(3))
        + "".join(f"n e{i} = e{i}\n" for i in range(3))
        + "".join(f"l x{i} = x{i}\n" for i in range(4)),
        "probability_cross.witness": "[witness]\n"
        + "".join(f"m p{i} = p{i}\n" for i in range(3))
        + "".join(f"n e{i} = e{i}\n" for i in range(3))
        + "".join(f"l x{i} = x{i}\n" for i in range(4))
        + "k mu = nu\n",  # k lines are refused in a witness file
        "random_4x6_self.witness": "[witness]\n"
        + "".join(f"m p{i} = p{i}\n" for i in range(4))
        + "".join(f"n e{i} = e{i}\n" for i in range(6))
        + "".join(f"l x{i} = x{i}\n" for i in range(8)),
    }


def _closure_commands(name: str, entity_text: str) -> list:
    entity = parse_entity(entity_text).entity
    experiments, states = sorted(entity.experiments), sorted(entity.states)
    couples = [f"{e},{p}" for e, p in entity.couples()]
    runs = []
    for kind in ("eigen", "ortho"):
        for on, scopes in (
            ("states", experiments),
            ("experiments", states),
            ("central", [experiments[0]]),  # a scope here is refused
            ("outcomes", couples[:2] if kind == "ortho" else ["x"]),
        ):
            runs.append(["closures", name, "--kind", kind, "--on", on])
            runs += [["closures", name, "--kind", kind, "--on", on, "--for", s] for s in scopes]
        runs.append(["closures", name, "--kind", kind, "--on", "states", "--for", "nosuch"])
    return runs


def commands(files: dict) -> list:
    """Every corpus command, plain and structured, in a fixed order."""
    runs = []
    for name, text in files.items():
        if not name.endswith(".soe") or name in ("pair_big.soe", "probability_k.soe"):
            continue
        runs += [["analyze", name], ["classify", name], ["verify", name]]
        runs += _closure_commands(name, text)
    runs += [["--seed", "7", "verify", "random_4x6.soe"], ["verify", "missing.soe"]]
    runs += [["closures", "random_2x2.soe"], ["frobnicate"], ["--seed", "x", "verify", "random_2x2.soe"]]
    for small, big, witness in (
        ("deterministic_pair.soe", "pair_big.soe", "pair.witness"),
        ("deterministic_pair.soe", "pair_big.soe", "pair_swapped.witness"),
        ("deterministic_pair.soe", "pair_big.soe", "pair_partial.witness"),
        ("probability.soe", "probability.soe", "probability_self.witness"),
        ("probability.soe", "probability.soe", "probability_cross.witness"),
        ("probability_k.soe", "probability.soe", "probability_self.witness"),
        ("probability.soe", "probability_bad.soe", "probability_self.witness"),
        ("random_4x6.soe", "random_4x6.soe", "random_4x6_self.witness"),
    ):
        runs.append(["subentity", small, big, "--witness", witness])
        runs.append(["subentity", small, big, "--witness", witness, "--probabilistic"])
    return [variant for argv in runs for variant in (argv, argv + ["--structured"])]


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process `soe` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exit_:  # argparse refusals
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def digest(result: tuple) -> str:
    return hashlib.sha256(json.dumps(list(result)).encode("utf-8")).hexdigest()


@contextlib.contextmanager
def corpus_directory():
    """Write the corpus files into a fresh directory and make it the working
    directory (reports name files by these relative paths). SOE_SEED is
    unset, so that every command sees the default seed, and COLUMNS is 80,
    the width argparse wraps its usage messages to."""
    saved_cwd = os.getcwd()
    saved_env = {name: os.environ.pop(name, None) for name in ("SOE_SEED", "COLUMNS")}
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as directory:
        files = entity_files()
        for name, text in files.items():
            Path(directory, name).write_text(text, encoding="utf-8")
        os.chdir(directory)
        try:
            yield files
        finally:
            os.chdir(saved_cwd)
            for name, value in saved_env.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value


def compute_hashes() -> dict:
    with corpus_directory() as files:
        return {" ".join(argv): digest(run(argv)) for argv in commands(files)}


if __name__ == "__main__":
    hashes = compute_hashes()
    HASHES.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(hashes)} hashes to {HASHES}\n")
