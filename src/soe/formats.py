"""Line-oriented text format for entities, probability tables, and witnesses.

    # comment
    [entity]
    states = p, q, r
    experiments = e, f, g
    outcomes = x1, x2, y1        # optional; must equal the union of the cells
    [outcomes]
    e p = x1, x2                 # one line per (experiment, state) cell
    [probability mu]             # optional, repeatable; token names the table
    e p x1 = 0.5
    [witness]                    # optional; m: big state -> small state,
    m P = p                      # n: small experiment -> big experiment,
    n e = E                      # l: small outcome -> big outcome,
    k mu = nu                    # k: small measure name -> big measure name

Identifiers are the entity identifiers (no whitespace, ',', '=', '#', '[',
']'). A probability value is ASCII digits, then optionally a point and digits,
then optionally 'e', an optional sign and digits; nothing else is a number.
Emission is deterministic, so parse(emit(entity)) round-trips.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from .entity import Entity, check_identifier
from .errors import EntityValidationError, ParseError
from .morphism import SubEntityWitness
from .probability import ProbabilityTable

_PROBABILITY = re.compile(r"[0-9]+(\.[0-9]+)?(e[+-]?[0-9]+)?")  # every repr of a float in [0, 1]


@dataclass
class EntityDocument:
    """Parsed contents of one entity file."""

    entity: Entity
    measures: dict = field(default_factory=dict)  # name -> ProbabilityTable
    witness: SubEntityWitness | None = None
    measure_map: dict = field(default_factory=dict)  # small measure name -> big measure name


def _check_identifiers(kind: str, items, line_no: int) -> None:
    """The entity identifier rule, failing with the line number."""
    try:
        for x in items:
            check_identifier(kind, x)
    except EntityValidationError as err:
        raise ParseError(str(err), line=line_no) from None


def _identifier_set(kind: str, raw: str, line_no: int) -> set:
    """A declared identifier list; listing an identifier twice is an error."""
    items = [x for x in map(str.strip, raw.split(",")) if x]
    if not items:
        raise ParseError("empty identifier list", line=line_no)
    _check_identifiers(kind, items, line_no)
    repeated = [x for x, count in Counter(items).items() if count > 1]
    if repeated:
        raise ParseError(f"identifier {repeated[0]!r} is listed twice", line=line_no)
    return set(items)


def _section_header(line: str, line_no: int) -> list:
    """The words between the brackets of a '[...]' line."""
    if "]" not in line:
        raise ParseError("unterminated section header", line=line_no)
    if not line.endswith("]"):
        raise ParseError("text after a section header", line=line_no)
    header = line[1:-1].split()
    if not header:
        raise ParseError("empty section header", line=line_no)
    return header


def _content_lines(text: str):
    """(line number, line) for each line left nonempty once its comment is cut."""
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def _key_value(line: str, line_no: int):
    if "=" not in line:
        raise ParseError("expected 'key = value'", line=line_no)
    lhs, rhs = (part.strip() for part in line.split("=", 1))
    return lhs, rhs


def _witness_entry(lhs: str, rhs: str, line_no: int, parts: dict) -> None:
    """Record the witness line '<which> <from> = <to>' in parts[which]; the
    keys of `parts` are the kinds of line allowed."""
    words = lhs.split()
    if len(words) != 2 or words[0] not in parts:
        raise ParseError(f"witness lines read '{'|'.join(parts)} <from> = <to>'", line=line_no)
    which, source = words
    if source in parts[which]:
        raise ParseError(f"duplicate witness entry {which} {source}", line=line_no)
    parts[which][source] = rhs


def parse_entity(text: str) -> EntityDocument:
    """Parse a document; raises ParseError carrying the offending line."""
    declared: dict = {}  # "states" | "experiments" | "outcomes" -> set of identifiers
    declared_line: dict = {}  # the same keys -> line of the declaration
    header_line: dict = {}  # section name -> line of its first header
    cells: dict = {}
    seen_outcomes: set = set()  # outcomes of the cells so far, each checked once
    measures: dict = {}
    measure_map: dict = {}
    witness_parts: dict = {"m": {}, "n": {}, "l": {}, "k": measure_map}
    section = None
    current_measure = None

    for line_no, line in enumerate(text.splitlines(), start=1):
        line = (line.split("#", 1)[0] if "#" in line else line).strip()  # as _content_lines, inline for the cell lines
        if not line:
            continue
        if line[0] == "[":
            header = _section_header(line, line_no)
            section = header[0]
            header_line.setdefault(section, line_no)
            if section == "outcomes":  # only [entity] lines declare, so read the declarations once here
                known_states, known_experiments = declared.get("states", ()), declared.get("experiments", ())
                known_outcomes = declared.get("outcomes", seen_outcomes)
            elif section == "probability":
                current_measure = header[1] if len(header) > 1 else f"mu{len(measures) + 1}"
                if current_measure in measures:
                    raise ParseError(f"duplicate probability table {current_measure!r}", line=line_no)
                measures[current_measure] = {}
            elif section not in ("entity", "witness"):
                raise ParseError(f"unknown section [{section}]", line=line_no)
            continue
        if section is None:
            raise ParseError("content before the first section header", line=line_no)
        if section == "outcomes":  # one line per cell, so read inline, with the refusals of _key_value
            lhs, eq, rhs = line.partition("=")
            if not eq:
                raise ParseError("expected 'key = value'", line=line_no)
            parts = lhs.split()
            if len(parts) != 2:
                raise ParseError("cell lines read '<experiment> <state> = outcomes'", line=line_no)
            e, p = parts
            if e not in known_experiments:
                raise ParseError(f"undeclared experiment {e!r}", line=line_no)
            if p not in known_states:
                raise ParseError(f"undeclared state {p!r}", line=line_no)
            key = (e, p)
            if key in cells:
                raise ParseError(f"duplicate cell ({e}, {p})", line=line_no)
            outs = [x for x in map(str.strip, rhs.split(",")) if x]
            if not outs:
                raise ParseError("empty identifier list", line=line_no)
            if not known_outcomes.issuperset(outs):
                fresh = [x for x in outs if x not in known_outcomes]
                if "outcomes" in declared:
                    raise ParseError(f"outcomes {fresh} are not in the declared outcome set", line=line_no)
                _check_identifiers("outcome", fresh, line_no)
                seen_outcomes.update(fresh)
            cells[key] = outs
            continue
        lhs, rhs = _key_value(line, line_no)
        if section == "entity":
            if lhs not in ("states", "experiments", "outcomes"):
                raise ParseError(f"unknown entity key {lhs!r}", line=line_no)
            if lhs in declared:
                raise ParseError(f"{lhs} declared a second time", line=line_no)
            declared[lhs] = _identifier_set(lhs[:-1], rhs, line_no)
            declared_line[lhs] = line_no
        elif section == "probability":
            parts = lhs.split()
            if len(parts) != 3:
                raise ParseError(
                    "probability lines read '<experiment> <state> <outcome> = value'", line=line_no
                )
            if tuple(parts) in measures[current_measure]:
                raise ParseError(f"duplicate probability entry ({', '.join(parts)}) in table {current_measure}",
                                 line=line_no)
            if not _PROBABILITY.fullmatch(rhs):
                raise ParseError(f"bad probability value {rhs!r}", line=line_no)
            value = float(rhs)
            if value > 1.0:
                raise ParseError(f"probability {rhs} outside [0, 1]", line=line_no)
            measures[current_measure][tuple(parts)] = value
        elif section == "witness":
            _witness_entry(lhs, rhs, line_no, witness_parts)

    states, experiments = declared.get("states"), declared.get("experiments")
    if not states or not experiments:
        raise ParseError(
            "the [entity] section must declare states and experiments", line=header_line.get("entity", 1)
        )
    if len(cells) != len(states) * len(experiments):  # each cell read is a distinct declared couple
        missing = [(e, p) for e in sorted(experiments) for p in sorted(states) if (e, p) not in cells]
        raise ParseError(
            f"missing outcome cell for {missing[0]}"
            + (f" and {len(missing) - 1} more" if len(missing) > 1 else ""),
            line=header_line.get("outcomes", header_line["entity"]),
        )
    never = sorted(declared.get("outcomes", set()).difference(*cells.values()))
    if never:
        raise ParseError(f"outcomes {never} are declared but never possible", line=declared_line["outcomes"])
    try:
        entity = Entity(states, experiments, cells, outcomes=declared.get("outcomes"))
    except EntityValidationError as err:
        raise ParseError(str(err), line=header_line["entity"]) from err

    document = EntityDocument(entity=entity, measure_map=measure_map)
    for name, table in measures.items():
        document.measures[name] = ProbabilityTable(table)
    if any(witness_parts[which] for which in "mnl"):
        document.witness = SubEntityWitness(
            m=witness_parts["m"], n=witness_parts["n"], l=witness_parts["l"]
        )
    return document


def parse_witness(text: str) -> SubEntityWitness:
    """Parse a witness file: one [witness] section of m/n/l lines only."""
    parts = {"m": {}, "n": {}, "l": {}}
    section = None
    for line_no, line in _content_lines(text):
        if line.startswith("["):
            section = " ".join(_section_header(line, line_no))
            if section != "witness":
                raise ParseError(f"witness files contain only a [witness] section, got [{section}]", line=line_no)
        elif section is None:
            raise ParseError("content before the [witness] header", line=line_no)
        else:
            _witness_entry(*_key_value(line, line_no), line_no, parts)
    return SubEntityWitness(**parts)


def emit_entity(entity: Entity, measures: dict | None = None) -> str:
    """Deterministic text form; parse(emit(entity)) reproduces the entity."""
    lines = ["[entity]"]
    lines.append("states = " + ", ".join(sorted(entity.states)))
    lines.append("experiments = " + ", ".join(sorted(entity.experiments)))
    lines.append("outcomes = " + ", ".join(sorted(entity.outcomes)))
    lines.append("[outcomes]")
    joined = {cell: ", ".join(sorted(cell)) for cell in set(entity._table.values())}  # each distinct cell once
    lines += [f"{e} {p} = {joined[cell]}" for (e, p), cell in entity.cells()]
    for name in sorted(measures or {}):
        lines.append(f"[probability {name}]")
        for (e, p, x) in sorted(measures[name].entries):
            lines.append(f"{e} {p} {x} = {measures[name](e, p, x)!r}")
    return "\n".join(lines) + "\n"
