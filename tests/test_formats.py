import random
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soe.formats
from soe.cli import main
from soe.entity import Entity
from soe.errors import EntityValidationError, ParseError, SoeError
from soe.examples import three_by_three
from soe.formats import emit_entity, parse_entity, parse_witness
from soe.probability import ProbabilityTable

from conftest import random_entity

WORKED_DOC = """
# the worked three-by-three entity
[entity]
states = p, q, r
experiments = e, f, g
outcomes = x1, x2, x3, y1, y2
[outcomes]
e p = x1, x2
e q = x1, x3
e r = x2, x3
f p = y1, y2
f q = x2, y2
f r = x3, y1, y2
g p = x1, y1
g q = x2
g r = x1, x2, y1
"""


class TestParsing:
    def test_worked_document(self):
        doc = parse_entity(WORKED_DOC)
        assert doc.entity == three_by_three()
        assert doc.measures == {}
        assert doc.witness is None

    def test_outcomes_declaration_optional(self):
        doc = parse_entity(WORKED_DOC.replace("outcomes = x1, x2, x3, y1, y2\n", ""))
        assert doc.entity == three_by_three()

    def test_missing_cell_named(self):
        text = WORKED_DOC.replace("g r = x1, x2, y1\n", "")
        with pytest.raises(ParseError, match=r"\('g', 'r'\)"):
            parse_entity(text)

    def test_undeclared_outcome_rejected_with_line(self):
        text = WORKED_DOC.replace("g q = x2", "g q = zz")
        with pytest.raises(ParseError, match="line 15"):
            parse_entity(text)

    def test_undeclared_state_rejected(self):
        text = WORKED_DOC + "\n"  # keep base valid
        text = text.replace("e p = x1, x2", "e zz = x1, x2")
        with pytest.raises(ParseError, match="zz"):
            parse_entity(text)

    def test_duplicate_cell_rejected(self):
        text = WORKED_DOC + "g q = x2\n"
        with pytest.raises(ParseError, match="duplicate cell"):
            parse_entity(text)

    def test_declared_outcome_never_possible(self):
        text = WORKED_DOC.replace(
            "outcomes = x1, x2, x3, y1, y2", "outcomes = x1, x2, x3, y1, y2, ghost"
        )
        with pytest.raises(ParseError, match="ghost"):
            parse_entity(text)

    def test_unknown_section(self):
        with pytest.raises(ParseError, match=r"unknown section"):
            parse_entity("[entity]\nstates = s\nexperiments = h\n[junk]\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[entity] junk\n", r"text after a section header \(line 1\)"),
            ("# note\n[entity\n", r"unterminated section header \(line 2\)"),
            ("[entity]\nstates = p]\nexperiments = e\n", r"state identifier 'p\]' .* \(line 2\)"),
            ("[entity]\nstates = p\nexperiments = e, f g\n", r"experiment identifier 'f g' .* \(line 3\)"),
            ("[entity]\nstates = p\nexperiments = e\noutcomes = x]\n", r"outcome identifier 'x\]' .* \(line 4\)"),
            ("[entity]\nstates = p, q\nexperiments = e\n[outcomes]\ne p = x\ne q = x, y z\n",
             r"outcome identifier 'y z' .* \(line 6\)"),
            ("[entity]\nstates = p\nexperiments = e\noutcomes = x, ghost\n[outcomes]\ne p = x\n",
             r"outcomes \['ghost'\] are declared but never possible \(line 4\)"),
            # cell lines: each refusal, and the first of two faults on one line
            ("[entity]\nstates = p\nexperiments = e\n[outcomes]\ne p x\n", r"expected 'key = value' \(line 5\)"),
            ("[entity]\nstates = p\nexperiments = e\n[outcomes]\ne p q = x\n",
             r"cell lines read '<experiment> <state> = outcomes' \(line 5\)"),
            ("[entity]\nstates = p\nexperiments = e\n[outcomes]\nf p = x\n", r"undeclared experiment 'f' \(line 5\)"),
            ("[entity]\nstates = p\nexperiments = e\n[outcomes]\ne p = , ,\n", r"empty identifier list \(line 5\)"),
            ("[entity]\nstates = p\nexperiments = e\n[outcomes]\nf q = , ,\n", r"undeclared experiment 'f' \(line 5\)"),
            ("[entity]\nstates = p, q\nexperiments = e\n[outcomes]\ne p = x  # a note, = [ ]\ne q = ,\n",
             r"empty identifier list \(line 6\)"),
            ("[entity]\nstates = p\nexperiments = e\n[outcomes]\ne p = x\n[probability mu]\ne p x = 0.5\ne p x = 0.3\n",
             r"^duplicate probability entry \(e, p, x\) in table mu \(line 8\)$"),
            # whole-document refusals cite the header of the section at fault
            ("[entity]\nstates = p, q\nexperiments = e\n\n[outcomes]\ne p = x\n",
             r"missing outcome cell for \('e', 'q'\) \(line 5\)"),
            ("# no cells\n[entity]\nstates = p, q\nexperiments = e\n",
             r"missing outcome cell for \('e', 'p'\) and 1 more \(line 2\)"),
            ("\n[entity]\nstates = p\n", r"must declare states and experiments \(line 2\)"),
            ("# comment\n[witness]\nm p = q\n", r"must declare states and experiments \(line 1\)"),
            ("", r"must declare states and experiments \(line 1\)"),
        ],
    )
    def test_malformed_line_rejected_with_line(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_entity(text)

    def test_entity_refusal_cites_the_entity_header(self, monkeypatch):
        # the parser checks every rule of Entity itself, so only an Entity
        # that adds a rule reaches this refusal
        def refuse(*args, **kwargs):
            raise EntityValidationError("a new rule")

        monkeypatch.setattr(soe.formats, "Entity", refuse)
        with pytest.raises(ParseError, match=r"^a new rule \(line 3\)$"):
            parse_entity(WORKED_DOC)

    def test_content_before_section(self):
        with pytest.raises(ParseError, match="before the first section"):
            parse_entity("states = s\n")

    @pytest.mark.parametrize(
        "line, repeated, line_no",
        [
            ("states = p, q, p, r", "p", 4),
            ("experiments = e, f, g, f", "f", 5),
            ("outcomes = x1, x2, x3, y1, y2, x3", "x3", 6),
        ],
    )
    def test_repeated_identifier_rejected_with_line(self, line, repeated, line_no):
        original = WORKED_DOC.splitlines()[line_no - 1]
        assert original.split(" =")[0] == line.split(" =")[0]
        with pytest.raises(ParseError, match=rf"'{repeated}' is listed twice \(line {line_no}\)"):
            parse_entity(WORKED_DOC.replace(original, line))

    @pytest.mark.parametrize(
        "declaration, first_cell",
        [
            ("outcomes = x1, x2, x3\n", "x1, x2"),
            ("", "x1, x2"),
            ("", "x2, x1, x2"),  # a new outcome listed twice on its first line
        ],
    )
    def test_each_name_is_one_object(self, declaration, first_cell):
        # names of two or more characters, which are not shared singletons
        text = ("[entity]\nstates = s1, s2\nexperiments = e1, e2\n" + declaration
                + f"[outcomes]\ne1 s1 = {first_cell}\ne1 s2 = x2, x3\ne2 s1 = x1, x3\ne2 s2 = x3, x1\n")
        entity = parse_entity(text).entity
        cells = list(entity._table.values())
        assert len({id(x) for cell in cells for x in cell}) == len(entity.outcomes) == 3
        assert {id(x) for cell in cells for x in cell} == set(map(id, entity.outcomes))
        assert {id(e) for e, _ in entity._table} <= set(map(id, entity.experiments))
        assert {id(p) for _, p in entity._table} <= set(map(id, entity.states))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("e zz = x1, x2", r"^undeclared state 'zz' \(line 17\)$"),
            ("h p = x1, x2", r"^undeclared experiment 'h' \(line 17\)$"),
            ("h zz = x1, x2", r"^undeclared experiment 'h' \(line 17\)$"),
            ("g r = x1, x2", r"^duplicate cell \(g, r\) \(line 17\)$"),
        ],
    )
    def test_refusals_on_a_line_whose_outcome_text_was_read(self, line, message):
        # ' x1, x2' is the outcome text of the first cell line, line 8
        assert WORKED_DOC.splitlines()[7] == "e p = x1, x2"
        with pytest.raises(ParseError, match=message):
            parse_entity(WORKED_DOC + line + "\n")

    def test_each_outcomes_section_reads_its_texts_again(self):
        # the second section is read against the outcomes declared in between
        text = ("[entity]\nstates = p, q\nexperiments = e\n[outcomes]\ne p = x, y\n"
                "[entity]\noutcomes = x\n[outcomes]\ne q = x, y\n")
        with pytest.raises(ParseError, match=r"^outcomes \['y'\] are not in the declared outcome set \(line 9\)$"):
            parse_entity(text)

    @pytest.mark.parametrize("key", ["states", "experiments", "outcomes"])
    def test_second_declaration_rejected_with_line(self, key):
        original = next(row for row in WORKED_DOC.splitlines() if row.startswith(key + " ="))
        text = WORKED_DOC.replace(original, original + "\n" + original)
        line_no = text.splitlines().index(original) + 2
        with pytest.raises(ParseError, match=rf"{key} declared a second time \(line {line_no}\)"):
            parse_entity(text)


PAD = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def outcome_texts(draw):
    """The right side of a cell line: a nonempty outcome list with random
    spacing, order and repeats, empty entries, and maybe a trailing comment."""
    names = draw(st.lists(st.sampled_from(["x", "y", "x1", "yy2"]), min_size=1, max_size=5))
    entries = draw(st.permutations(names + [""] * draw(st.integers(0, 2))))
    comment = draw(st.sampled_from(["", " # note", "#x, y = [ ]", "\t#"]))
    return ",".join(draw(PAD) + x + draw(PAD) for x in entries) + comment


@st.composite
def cell_documents(draw):
    """An entity document whose cell lines share some outcome texts, spread
    over one or two [outcomes] sections, with the outcomes declared before
    the first, between the two, or not at all. Returns the text and each
    couple's outcome text."""
    states = [f"s{j}" for j in range(draw(st.integers(1, 4)))]
    experiments = [f"e{i}" for i in range(draw(st.integers(1, 3)))]
    couples = draw(st.permutations([(e, p) for e in experiments for p in states]))
    pool = draw(st.lists(outcome_texts(), min_size=1, max_size=len(couples)))
    texts = {couple: draw(st.sampled_from(pool)) for couple in couples}
    union = {x.strip() for text in texts.values() for x in text.split("#")[0].split(",")} - {""}
    declaration = "outcomes = " + ", ".join(sorted(union))
    lines = ["[entity]", "states = " + ", ".join(states), "experiments = " + ", ".join(experiments)]
    declared_at = draw(st.sampled_from(["first", "between", None]))
    if declared_at == "first":
        lines.append(declaration)
    lines.append("[outcomes]")
    cell_lines = [draw(PAD) + f"{e} {draw(PAD)}{p}" + draw(PAD) + "=" + texts[e, p] for e, p in couples]
    split = draw(st.integers(0, len(couples)))
    lines += cell_lines[:split]
    if declared_at == "between":
        lines += ["[entity]", declaration]
    if declared_at == "between" or draw(st.booleans()):
        lines.append("[outcomes]")
    lines += cell_lines[split:]
    return "\n".join(lines) + "\n", texts


@settings(max_examples=200, deadline=None)
@given(cell_documents())
def test_cells_are_the_names_of_their_lines(drawn):
    """Each cell is the stripped nonempty names of its own line as written,
    whether its outcome text was read before or not, and each cell reaches
    Entity as a list of its own."""
    text, texts = drawn
    tables = []

    def spy(states, experiments, table, outcomes=None):
        tables.append(table)
        return Entity(states, experiments, table, outcomes=outcomes)

    with patch.object(soe.formats, "Entity", spy):
        entity = parse_entity(text).entity
    written = {couple: [x.strip() for x in text.split("#")[0].split(",") if x.strip()] for couple, text in texts.items()}
    assert tables[0] == written
    assert len({id(cell) for cell in tables[0].values()}) == len(written)
    assert dict(entity.cells()) == {couple: frozenset(names) for couple, names in written.items()}


class TestProbabilitySections:
    def test_named_table(self):
        text = WORKED_DOC + "\n[probability mu]\ne p x1 = 0.5\ne p x2 = 0.5\n"
        doc = parse_entity(text)
        assert set(doc.measures) == {"mu"}
        assert doc.measures["mu"]("e", "p", "x1") == 0.5

    def test_unnamed_tables_are_numbered(self):
        text = WORKED_DOC + "\n[probability]\ne p x1 = 1.0\n[probability]\ne p x2 = 1.0\n"
        doc = parse_entity(text)
        assert set(doc.measures) == {"mu1", "mu2"}

    def test_bad_value_rejected(self):
        text = WORKED_DOC + "\n[probability]\ne p x1 = 1.5\n"
        with pytest.raises(ParseError, match="outside"):
            parse_entity(text)
        text = WORKED_DOC + "\n[probability]\ne p x1 = lots\n"
        with pytest.raises(ParseError, match="bad probability"):
            parse_entity(text)

    @staticmethod
    def _one_value(literal):
        """The worked document with one probability line, and that line's number."""
        text = WORKED_DOC + f"[probability]\ne p x1 = {literal}\n"
        return text, len(text.splitlines())

    @pytest.mark.parametrize(
        "literal, value",
        [("0.5", 0.5), ("1", 1.0), ("1.0", 1.0), ("25e-2", 0.25), ("2.5e-1", 0.25), ("0.5e+0", 0.5),
         ("1e-05", 1e-05), ("5e-324", 5e-324), ("0.30000000000000004", 0.1 + 0.2), ("1e-400", 0.0)],
    )
    def test_the_number_grammar(self, literal, value):
        text, _ = self._one_value(literal)
        assert parse_entity(text).measures["mu1"]("e", "p", "x1") == value

    @pytest.mark.parametrize(
        "literal",
        ["0.2_5", "1_0", "nan", "inf", "-0.0", "+0.5", ".5", "1.", "1E-3", "1e", "0.5e-", "0x1p-1", "1/2",
         "\u0660.\u0665", "0.5 0.5"],
    )
    def test_other_spellings_are_refused_as_written(self, literal):
        text, line = self._one_value(literal)
        with pytest.raises(ParseError) as err:
            parse_entity(text)
        assert str(err.value) == f"bad probability value {literal!r} (line {line})"

    @pytest.mark.parametrize("literal", ["1.5", "2", "1e309", "1.0000000000000002"])
    def test_values_above_one_are_refused_as_written(self, literal):
        text, line = self._one_value(literal)
        with pytest.raises(ParseError) as err:
            parse_entity(text)
        assert str(err.value) == f"probability {literal} outside [0, 1] (line {line})"


class TestWitnessSection:
    def test_witness_parsed(self):
        text = WORKED_DOC + "\n[witness]\nm P = p\nn e = E\nl x1 = X1\nk mu = nu\n"
        doc = parse_entity(text)
        assert doc.witness.m == {"P": "p"}
        assert doc.witness.n == {"e": "E"}
        assert doc.witness.l == {"x1": "X1"}
        assert doc.measure_map == {"mu": "nu"}

    def test_bad_witness_line(self):
        with pytest.raises(ParseError, match="witness lines"):
            parse_entity(WORKED_DOC + "\n[witness]\nzz P = p\n")

    def test_duplicate_entry_rejected_with_line(self):
        with pytest.raises(ParseError, match=r"duplicate witness entry k mu \(line 3\)"):
            parse_entity("[witness]\nk mu = nu\nk mu = rho\n")

    def test_witness_file(self):
        witness = parse_witness("# map\n[witness]\nm P = p\nn e = E\nl x1 = X1\n")
        assert (witness.m, witness.n, witness.l) == ({"P": "p"}, {"e": "E"}, {"x1": "X1"})

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[witness]\nm P = p\nm P = q\n", r"duplicate witness entry m P \(line 3\)"),
            ("[witness]\nk mu = nu\n", r"witness lines read 'm\|n\|l <from> = <to>' \(line 2\)"),
            ("[entity]\nstates = p\n", r"only a \[witness\] section, got \[entity\] \(line 1\)"),
            ("m P = p\n", r"content before the \[witness\] header \(line 1\)"),
            ("[witness] m\n", r"text after a section header \(line 1\)"),
        ],
    )
    def test_witness_file_rejects(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_witness(text)


class TestRoundTrip:
    def test_worked(self):
        entity = three_by_three()
        assert parse_entity(emit_entity(entity)).entity == entity

    def test_shipped_fixture_is_the_worked_entity(self):
        text = (Path(__file__).parent / "fixtures" / "three_by_three.soe").read_text()
        assert parse_entity(text).entity == three_by_three()

    def test_random_entities(self):
        rng = random.Random(111)
        for _ in range(25):
            entity = random_entity(rng, 4, 4, 6)
            assert parse_entity(emit_entity(entity)).entity == entity

    def test_measures_round_trip(self, dpair):
        from soe.probability import d_classical_measure

        measure = d_classical_measure(dpair)
        text = emit_entity(dpair, {"mu": measure})
        doc = parse_entity(text)
        assert doc.entity == dpair
        assert doc.measures["mu"] == measure

    def test_fractional_measure_round_trips_exactly(self):
        entity = parse_entity(WORKED_DOC).entity
        table = ProbabilityTable({("e", "p", "x1"): 1 / 3, ("e", "p", "x2"): 2 / 3})
        doc = parse_entity(emit_entity(entity, {"t": table}))
        assert doc.measures["t"]("e", "p", "x1") == 1 / 3

    def test_emission_deterministic(self):
        entity = three_by_three()
        assert emit_entity(entity) == emit_entity(entity)


FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.soe"))
# characters and chunks an edit inserts: the format's punctuation, number
# spellings inside and outside the grammar, and whole section lines
FUZZ_CHUNKS = list("pqex19.,=#[] \n\t_-+") + [
    "\u0660", "e p x1", "0.5", "1e309", "0.2_5", "nan", "[probability]\n", "[witness]\n", "m p = q\n",
    "[outcomes]\n", "[entity]\n",
]


def _edit(rng, text):
    """One random edit: delete, insert or replace at a random character (seven
    times in ten), or delete, duplicate or swap random lines."""
    i = rng.randrange(len(text) + 1)
    op = rng.choice((0, 0, 1, 1, 1, 2, 2, 3, 4, 5))
    if op == 0:
        return text[:i] + text[i + 1:]
    if op == 1:
        return text[:i] + rng.choice(FUZZ_CHUNKS) + text[i:]
    if op == 2:
        return text[:i] + rng.choice(FUZZ_CHUNKS) + text[i + 1:]
    lines = text.splitlines(keepends=True) or [""]
    j, k = rng.randrange(len(lines)), rng.randrange(len(lines))
    if op == 3:
        del lines[j]
    elif op == 4:
        lines.insert(j, lines[k])
    else:
        lines[j], lines[k] = lines[k], lines[j]
    return "".join(lines)


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda path: path.name)
def test_seeded_edits_of_the_fixtures_fail_only_as_soe_errors(fixture, tmp_path, capsys):
    """Each fixture under 1-6 seeded random edits: parsing raises nothing but
    SoeError subclasses, and the commands that read one entity file exit 0-3
    with no traceback."""
    rng = random.Random(fixture.name)
    original = fixture.read_text(encoding="utf-8")
    edited = tmp_path / fixture.name
    for _ in range(500):
        text = original
        for _ in range(rng.randint(1, 6)):
            text = _edit(rng, text)
        try:
            parse_entity(text)
        except ParseError as err:
            assert err.line is not None, (str(err), text)
        except SoeError:
            pass
        edited.write_text(text, encoding="utf-8")
        for command in ("verify", "classify", "analyze"):
            code = main([command, str(edited), "--structured"])
            err = capsys.readouterr().err
            assert 0 <= code <= 3, (command, text)
            assert "Traceback" not in err, (command, text)
