"""Command-line driver.

Commands: analyze, closures, classify, subentity, qmachine, verify. Reports
are deterministic (byte-identical across runs for identical inputs and seeds);
`--structured` switches to a flat `key = value` form with dotted paths, one
datum per line, documented in the README. Exit codes: 0 success, 1 a
verification failed, 2 usage or input errors, 3 the kernel contradicted one
of its own theorem cross-checks (a kernel bug). The environment variable
SOE_SEED (default 42) seeds every sampled verification; a value that is not
an integer is a usage error unless --seed overrides it.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys

from .classify import classify
from .closure import (
    eigen_closure_system,
    entity_ortho_space,
    ortho_closure_system,
    outcome_closure,
    outcome_closure_system,
    outcome_interior,
    state_trace,
)
from .diagnostics import Diagnostics
from .entity import Entity, RelationKind, eigen_outcome, relation_report, relation_views, view_implies
from .errors import ConsistencyError, SoeError
from .formats import parse_entity, parse_witness
from .morphism import (
    ProbabilityCorrespondence,
    _preimage_continuity,
    verify_probabilistic_sub_entity,
    verify_sub_entity,
)
from .probability import ProbabilisticEntity, validate_measure
from .quantum import (
    BallState,
    SphereExperiment,
    cq_probability,
    qmachine_probability,
    qmachine_to_hilbert,
    sphere_experiment_family,
)
from .statprop import is_cartan_family, testable_sps

DEFAULT_SEED = 42


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _fmt_member(member) -> str:
    return "{" + ",".join(_fmt_item(x) for x in sorted(member, key=str)) + "}"


def _fmt_item(item) -> str:
    if isinstance(item, tuple):
        return "(" + ",".join(item) + ")"
    return str(item)


class Report:
    """Collects rows once; renders either human or structured text."""

    def __init__(self, structured: bool):
        self.structured = structured
        self.lines = []

    def heading(self, text: str) -> None:
        if not self.structured:
            self.lines.append(text)

    def row(self, path: str, value, human: str | None = None) -> None:
        if self.structured:
            self.lines.append(f"{path} = {value}")
        else:
            self.lines.append(human if human is not None else f"  {path.split('.')[-1]} = {value}")

    def rows(self, path: str, texts) -> None:
        """One row per text, at path.0, path.1, ...; the human form indents each text."""
        if self.structured:
            self.lines += [f"{path}.{i} = {text}" for i, text in enumerate(texts)]
        else:
            self.lines += ["  " + text for text in texts]

    def emit(self) -> None:
        sys.stdout.write("\n".join(self.lines) + ("\n" if self.lines else ""))


def _load(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_entity(handle.read())


def _emit_diagnostics(report: Report, prefix: str, diag: Diagnostics) -> None:
    for name in sorted(diag.checks):
        ok = diag.checks[name]
        report.row(f"{prefix}.{name}", "pass" if ok else "fail", f"  {'pass' if ok else 'FAIL'} {name}")
    for i, failure in enumerate(diag.failures):
        report.row(f"{prefix}.failure.{i}", failure, f"    {failure}")
    if diag._overflow:
        report.row(f"{prefix}.suppressed", diag._overflow, f"    ... {diag._overflow} further failure(s) suppressed")
    for key in sorted(diag.details):
        value = diag.details[key]
        rendered = _fmt(value) if isinstance(value, float) else str(value)
        report.row(f"{prefix}.{key}", rendered, f"  {key} = {rendered}")


# -- analyze -------------------------------------------------------------------


def cmd_analyze(args) -> int:
    doc = _load(args.file)
    entity = doc.entity
    report = Report(args.structured)
    names = {a: _fmt_item(a) for a in (*entity.states, *entity.experiments, *entity.outcomes, *entity.couples())}
    for section in relation_report(entity).sections:
        report.heading(f"[{section.kind}]")
        rows = (("implication", "<", section.implications), ("orthogonal", "|", section.orthogonalities))
        for relation, sign, pairs in rows:
            report.rows(f"analyze.{section.kind}.{relation}", (f"{names[a]} {sign} {names[b]}" for a, b in pairs))
    report.emit()
    return 0


# -- closures ------------------------------------------------------------------


def cmd_closures(args) -> int:
    doc = _load(args.file)
    entity = doc.entity
    scope = args.scope
    if args.kind == "eigen":
        if args.on == "outcomes":
            if scope is not None:
                raise SoeError("--for is not meaningful for the outcome closure")
            system = outcome_closure_system(entity)
        else:
            system = eigen_closure_system(entity, args.on, scope)
    else:
        target = scope
        if args.on == "outcomes" and scope is not None:
            target = tuple(scope.split(","))
            if len(target) != 2:
                raise SoeError(f"--for on outcomes takes E,P (an experiment and a state), not {scope!r}")
        system = ortho_closure_system(entity_ortho_space(entity, args.on, target))
    report = Report(args.structured)
    report.heading(
        f"{args.kind} closure system on {args.on}" + (f" scoped to {scope}" if scope else "")
    )
    report.row("closures.kind", args.kind)
    report.row("closures.on", args.on)
    if scope:
        report.row("closures.scope", scope)
    report.row("closures.size", len(system.members), f"  members: {len(system.members)}")
    report.rows("closures.member", map(_fmt_member, system.sorted_members()))
    report.emit()
    return 0


# -- classify ------------------------------------------------------------------


def cmd_classify(args) -> int:
    doc = _load(args.file)
    result = classify(doc.entity)
    report = Report(args.structured)
    report.heading("classification")
    for name, flag in result.flags().items():
        report.row(f"classify.{name}", str(flag).lower())
    for name in sorted(result.witnesses):
        witness = result.witnesses[name]
        if name == "d_classical":
            rendered = _fmt_item(witness)  # one non-singleton cell
        else:
            rendered = " , ".join(_fmt_item(part) for part in witness)
        report.row(f"classify.witness.{name}", rendered, f"  witness[{name}] = {rendered}")
    report.emit()
    return 0


# -- subentity -----------------------------------------------------------------


def cmd_subentity(args) -> int:
    small_doc = _load(args.small)
    big_doc = _load(args.big)
    with open(args.witness, "r", encoding="utf-8") as handle:
        witness = parse_witness(handle.read())
    report = Report(args.structured)
    diag = verify_sub_entity(small_doc.entity, big_doc.entity, witness)
    report.heading("sub-entity witness")
    _emit_diagnostics(report, "subentity.witness", diag)
    ok = diag.passed
    if ok:
        cont = _preimage_continuity(small_doc.entity, big_doc.entity, witness)  # the core check just passed
        report.heading("eigen-closure continuity")
        _emit_diagnostics(report, "subentity.continuity", cont)
        ok = ok and cont.passed
    if ok and args.probabilistic:
        mapping = small_doc.measure_map or {
            name: name for name in small_doc.measures if name in big_doc.measures
        }
        pairs = []
        for small_name, big_name in sorted(mapping.items()):
            if small_name not in small_doc.measures:
                raise SoeError(f"unknown measure {small_name!r} in the small entity file")
            if big_name not in big_doc.measures:
                raise SoeError(f"unknown measure {big_name!r} in the big entity file")
            pairs.append((small_doc.measures[small_name], big_doc.measures[big_name]))
        if not pairs:
            raise SoeError("no measure correspondence; add [probability] tables and k lines")
        prob = verify_probabilistic_sub_entity(
            ProbabilisticEntity(small_doc.entity, tuple(m for m, _ in pairs)),
            ProbabilisticEntity(big_doc.entity, tuple(m for _, m in pairs)),
            witness,
            ProbabilityCorrespondence(pairs),
        )
        report.heading("probability transport")
        _emit_diagnostics(report, "subentity.probabilistic", prob)
        ok = ok and prob.passed
    report.row("subentity.verdict", "pass" if ok else "fail", f"verdict: {'pass' if ok else 'FAIL'}")
    report.emit()
    return 0 if ok else 1


# -- qmachine ------------------------------------------------------------------


def cmd_qmachine(args) -> int:
    state = BallState.from_angles(args.theta, args.phi, args.radius)
    axis = SphereExperiment.from_angles(args.axis_theta, args.axis_phi)
    elastic = qmachine_probability(state, axis)
    density = qmachine_to_hilbert(state)
    family = sphere_experiment_family(axis)
    hilbert = (cq_probability(family, density, 1), cq_probability(family, density, 2))
    report = Report(args.structured)
    report.heading(
        f"ball state (theta={_fmt(args.theta)}, phi={_fmt(args.phi)}, radius={_fmt(args.radius)}) "
        f"under axis (theta={_fmt(args.axis_theta)}, phi={_fmt(args.axis_phi)})"
    )
    report.row("qmachine.elastic.p1", _fmt(elastic[0]), f"  elastic  p1 = {_fmt(elastic[0])}  p2 = {_fmt(elastic[1])}")
    if args.structured:
        report.row("qmachine.elastic.p2", _fmt(elastic[1]))
    report.row("qmachine.hilbert.p1", _fmt(hilbert[0]), f"  hilbert  p1 = {_fmt(hilbert[0])}  p2 = {_fmt(hilbert[1])}")
    if args.structured:
        report.row("qmachine.hilbert.p2", _fmt(hilbert[1]))
    gap = max(abs(elastic[0] - hilbert[0]), abs(elastic[1] - hilbert[1]))
    report.row("qmachine.max_difference", _fmt(gap), f"  largest difference = {_fmt(gap)}")
    report.emit()
    return 0


# -- verify --------------------------------------------------------------------


def _relation_axiom_checks(entity: Entity, diag: Diagnostics, rng: random.Random) -> None:
    # here and in `_closure_checks`, an instance is recorded only when it
    # fails or is the first of its check, which lists the check as passed
    cells = dict(entity.cells())
    couples = list(cells)
    view, orthogonal = relation_views(entity, RelationKind.central())
    views = {a: view(a) for a in couples}
    checks = diag.checks
    checks.setdefault("relations.reflexive", True)
    checks.setdefault("relations.antireflexive", True)
    for a, u in views.items():
        if not view_implies(u, u):
            diag.record("relations.reflexive", False, lambda: _fmt_item(a))
        if orthogonal(u, u):
            diag.record("relations.antireflexive", False, lambda: _fmt_item(a))
    pool = couples if len(couples) <= 12 else rng.sample(couples, 12)
    below = {(a, b): view_implies(views[a], views[b]) for a in pool for b in pool}  # the kernel's implication
    for a in pool:
        for b in pool:
            if a != b and cells[a].isdisjoint(cells[b]):
                ok = orthogonal(views[b], views[a])
                if not ok or "relations.symmetric" not in checks:
                    diag.record("relations.symmetric", ok, lambda: f"{_fmt_item(a)} | {_fmt_item(b)}")
            if below[a, b]:
                ok = not orthogonal(views[a], views[b])
                if not ok or "relations.implies_never_orthogonal" not in checks:
                    diag.record("relations.implies_never_orthogonal", ok, lambda: f"{_fmt_item(a)} < {_fmt_item(b)}")
                for c in pool:
                    if below[b, c] and (not below[a, c] or "relations.transitive" not in checks):
                        witness = lambda: f"{_fmt_item(a)} < {_fmt_item(b)} < {_fmt_item(c)}"  # noqa: E731
                        diag.record("relations.transitive", below[a, c], witness)
    checks.setdefault("relations.eigen_iff_singleton", True)
    for (e, p), cell in cells.items():
        if (eigen_outcome(entity, e, p) is not None) != (len(cell) == 1):
            diag.record("relations.eigen_iff_singleton", False, lambda: f"({e}, {p})")


def _closure_checks(entity: Entity, diag: Diagnostics, rng: random.Random) -> dict:
    """Check every closure system verify builds; returns them by name."""
    central_eig = eigen_closure_system(entity, "central")
    central_orth = ortho_closure_system(entity_ortho_space(entity, "central"))
    diag.record(
        "closures.ortho_inside_eigen",
        central_eig.includes(central_orth),
        "a central ortho closed set is not eigen closed",
    )
    systems = {
        "central_eigen": central_eig,
        "central_ortho": central_orth,
        "state_eigen": eigen_closure_system(entity, "states"),
        "experiment_eigen": eigen_closure_system(entity, "experiments"),
        "state_trace_of_central": state_trace(central_eig),
    }
    for e in sorted(entity.experiments):
        systems[f"state_eigen<{e}>"] = eigen_closure_system(entity, "states", e)
    for p in sorted(entity.states):
        systems[f"experiment_eigen<{p}>"] = eigen_closure_system(entity, "experiments", p)
    checks = diag.checks
    for name, system in systems.items():
        # a generated system is intersection closed by construction; its
        # generator masks and its own operator are what can still be wrong.
        # The masks are tested as kept: decoding drops any bit past the order
        axioms = f"closures.axioms.{name}"
        full = system._order.full
        diag.record(axioms, all(g & ~full == 0 for g in system._gens), "a generator leaves the ground set")
        diag.record(axioms, not system._close(0), "empty: cl({}) is not empty")
        _sampled_axiom_checks(system, name, diag, rng)
    outcomes = sorted(entity.outcomes)
    cells = [cell for _, cell in entity.cells()]
    for name in ("interior_invisible_to_eig", "extensive", "idempotent"):
        checks.setdefault(f"closures.outcome_{name}", True)
    for _ in range(10):
        A = frozenset(rng.sample(outcomes, rng.randint(0, len(outcomes))))
        interior = outcome_interior(entity, A)
        if any((cell <= A) != (cell <= interior) for cell in cells):
            diag.record("closures.outcome_interior_invisible_to_eig", False, lambda: _fmt_member(A))
        clA = outcome_closure(entity, A)
        if not A <= clA:
            diag.record("closures.outcome_extensive", False, lambda: _fmt_member(A))
        if outcome_closure(entity, clA) != clA:
            diag.record("closures.outcome_idempotent", False, lambda: _fmt_member(A))
    return systems


def _sampled_axiom_checks(system, name: str, diag: Diagnostics, rng: random.Random) -> None:
    """Check the closure operator of `system` on five seeded sets K: cl(K)
    contains K and cl(K less its str-least item), and cl(cl(K)) = cl(K). K is
    drawn by index into the str-sorted ground, whose bit positions the order
    keeps (`_Order.ranks`), and held as a mask over the system's order; it is
    decoded only for a failure's witness."""
    axioms, idempotent = f"closures.axioms.{name}", f"closures.idempotent.{name}"
    diag.checks.setdefault(idempotent, True)
    order, close = system._order, system._close
    items = order.items
    bits = order.ranks()
    for _ in range(5):
        idx = rng.sample(range(len(bits)), rng.randint(0, len(bits)))
        k = sum(map((1).__lshift__, map(bits.__getitem__, idx)))  # distinct powers of two: the sum is their OR
        closed = close(k)
        if k & ~closed:
            diag.record(axioms, False, lambda: f"extensive: K = {_fmt_member(order.decode(k))}")
        if idx:
            least = bits[min(idx)]
            if close(k - (1 << least)) & ~closed:
                witness = lambda: f"monotone: K = {_fmt_member(order.decode(k))} less {_fmt_item(items[least])}"  # noqa: E731
                diag.record(axioms, False, witness)
        if close(closed) != closed:
            diag.record(idempotent, False, lambda: _fmt_member(order.decode(k)))


def _statprop_checks(entity: Entity, diag: Diagnostics, systems: dict) -> None:
    diag.checks.setdefault("properties.cartan_image_is_eigen_family", True)
    for e in sorted(entity.experiments):
        if not is_cartan_family(testable_sps(entity, e), systems[f"state_eigen<{e}>"]):
            diag.record("properties.cartan_image_is_eigen_family", False, f"experiment {e}")


def cmd_verify(args) -> int:
    doc = _load(args.file)
    rng = random.Random(args.seed)
    diag = Diagnostics(cap=25)
    _relation_axiom_checks(doc.entity, diag, rng)
    systems = _closure_checks(doc.entity, diag, rng)
    _statprop_checks(doc.entity, diag, systems)
    # raises ConsistencyError on any cross-check failure
    classify(doc.entity)
    diag.record("classification.cross_checks", True)
    for name in sorted(doc.measures):
        measure_diag = validate_measure(doc.entity, doc.measures[name])
        diag.record(f"probability.{name}", measure_diag.passed, "; ".join(measure_diag.failures))
        for key, value in measure_diag.details.items():
            diag.details[f"{name}.{key}"] = value
    report = Report(args.structured)
    report.heading(f"invariant suite for {args.file} (seed {args.seed})")
    _emit_diagnostics(report, "verify", diag)
    report.row("verify.verdict", "pass" if diag.passed else "fail", f"verdict: {'pass' if diag.passed else 'FAIL'}")
    report.emit()
    return 0 if diag.passed else 1


# -- entry point -----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing never changes it, and
    every call parses into a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="soe",
        description="Kernel for finite experiment-state-outcome entities: relations, closures, classification, sub-entity verification, and the sphere-elastic machine.",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed for sampled verifications (overrides SOE_SEED)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="emit the full relation report of an entity file")
    p.add_argument("file")
    p.add_argument("--structured", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("closures", help="emit a closure system of an entity file")
    p.add_argument("file")
    p.add_argument("--kind", choices=("eigen", "ortho"), required=True)
    p.add_argument("--on", choices=("states", "experiments", "central", "outcomes"), required=True)
    p.add_argument("--for", dest="scope", default=None, metavar="ID")
    p.add_argument("--structured", action="store_true")
    p.set_defaults(func=cmd_closures)

    p = sub.add_parser("classify", help="emit the classification report")
    p.add_argument("file")
    p.add_argument("--structured", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("subentity", help="verify a sub-entity witness between two entity files")
    p.add_argument("small")
    p.add_argument("big")
    p.add_argument("--witness", required=True)
    p.add_argument("--probabilistic", action="store_true")
    p.add_argument("--structured", action="store_true")
    p.set_defaults(func=cmd_subentity)

    p = sub.add_parser("qmachine", help="elastic vs Hilbert probabilities for a ball state")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--axis-theta", type=float, default=0.0)
    p.add_argument("--axis-phi", type=float, default=0.0)
    p.add_argument("--structured", action="store_true")
    p.set_defaults(func=cmd_qmachine)

    p = sub.add_parser("verify", help="run the invariant suite for an entity file")
    p.add_argument("file")
    p.add_argument("--structured", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is None:
        raw = os.environ.get("SOE_SEED", str(DEFAULT_SEED))
        try:
            args.seed = int(raw)
        except ValueError:
            sys.stderr.write(f"error: SOE_SEED must be an integer, got {raw!r}\n")
            return 2
    try:
        return args.func(args)
    except ConsistencyError as err:
        sys.stderr.write(f"error: {err}\n")
        return 3
    except SoeError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except OSError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
