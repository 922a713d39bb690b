import random
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from calang.aggregate import load_boxes
from calang.clauses import Predicate, parse_box
from calang.horn import export_horn, to_horn
from calang.terms import (
    HAT,
    LOCAL,
    MINUS,
    PLUS,
    SET,
    SLASH,
    TIMES,
    UNION,
    UNION_SYM,
    Num,
    SetTerm,
    Sym,
    Tup,
    Var,
    classify,
    map_vars,
)
from test_acceptance import DeclGenerator


def clause_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln and not ln.startswith("%")]


class TestToHorn:
    def test_three_assertions_two_conditions(self):
        box = parse_box(
            "box b ((x) -> (y)):\n"
            "  $x > 0, $x < 9 => $y = 1, $y < 2, $y != 3;")
        hcs = to_horn(box.clauses[0])
        assert len(hcs) == 3
        for hc in hcs:
            assert len(hc.body) == 2
            assert hc.body == box.clauses[0].conditions

    def test_empty_condition_gives_facts(self):
        box = parse_box("box b ((x) -> (y)): => $y = 1, $y = 2;")
        hcs = to_horn(box.clauses[0])
        assert all(hc.body == () for hc in hcs)

    def test_mybox_clause1_two_horn_clauses(self, mybox_source):
        box = parse_box(mybox_source)
        hcs = to_horn(box.clauses[0])
        # counted by hand from the listing: 2 assertions, 2 provided conds
        assert len(hcs) == 2
        assert all(len(hc.body) == 2 for hc in hcs)

    def test_random_counts(self):
        rng = random.Random(7)
        for _ in range(50):
            k = rng.randint(1, 5)
            m = rng.randint(0, 4)
            conds = ", ".join(f"$x > {i}" for i in range(m))
            asserts = ", ".join(f"$y != {i}" for i in range(k))
            box = parse_box(f"box b ((x) -> (y)): {conds} => {asserts};")
            hcs = to_horn(box.clauses[0])
            assert len(hcs) == k
            assert all(len(hc.body) == m for hc in hcs)


class TestExport:
    def test_fact_line(self):
        box = parse_box("box b ((x) -> (y)): => $y = 1;")
        (line,) = clause_lines(export_horn([box]))
        assert line == "num_eq(Y_1_0, 1)."

    def test_mybox_line_count_matches_assertion_total(self, mybox_source):
        box = parse_box(mybox_source)
        lines = clause_lines(export_horn([box]))
        assert len(lines) == sum(len(c.assertions) for c in box.clauses) == 8

    def test_bodies_identical_within_clause(self, mybox_source):
        box = parse_box(mybox_source)
        lines = clause_lines(export_horn([box]))
        bodies = [ln.split(" :- ")[1] for ln in lines if " :- " in ln]
        # 4 clauses x 2 assertions: each pair shares one body
        assert len(bodies) == 8
        for i in range(0, 8, 2):
            assert bodies[i] == bodies[i + 1]

    def test_export_deterministic(self, mybox_source):
        box1 = parse_box(mybox_source)
        box2 = parse_box(mybox_source)
        assert export_horn([box1]) == export_horn([box2])

    def test_two_boxes_concatenate_with_headers(self, mybox_source):
        a = parse_box("box A ((x) -> (y)): => $y = 1;")
        b = parse_box(mybox_source)
        text = export_horn([a, b])
        assert text.index("% box A") < text.index("% box MYBOX")

    def test_empty_box_keeps_header_comment(self):
        box = parse_box("box b (() -> ):")
        text = export_horn([box])
        assert "% box b" in text
        assert clause_lines(text) == []

    def test_variable_hygiene_across_clauses(self, mybox_source):
        a = parse_box("box A ((x) -> (y)): $x > 0 => $y = 1;")
        b = parse_box("box B ((x) -> (y)): $x > 1 => $y = 2;")
        text = export_horn([a, b])
        names = set()
        per_clause = []
        for ln in clause_lines(text):
            found = set(re.findall(r"\b[A-Z]\w*\b", ln.replace("'", " ")))
            per_clause.append(found)
        assert per_clause[0].isdisjoint(per_clause[1])

    def test_relation_encoding(self):
        box = parse_box("box b ((x) -> (y)): $x > $$nt * 100 => $y = 1;")
        (line,) = clause_lines(export_horn([box]))
        assert "gt(" in line and "times(" in line and ":- " in line

    def test_set_and_union_encoding(self):
        box = parse_box("box b ((x) -> (y)): => $y :=: {rank(2)} \\/ $x;")
        (line,) = clause_lines(export_horn([box]))
        assert "union(set([rank(2)])" in line

    def test_lf_endings_and_trailing_newline(self, mybox_source):
        text = export_horn([parse_box(mybox_source)])
        assert "\r" not in text
        assert text.endswith("\n")


# ---------------------------------------------------------------------------
# Read-back oracle: the export, read back, is the flattened clauses
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<num>-?\d+(?:/\d+)?)|(?P<var>[A-Z_]\w*)|(?P<atom>[a-z]\w*)"
                    r"|'(?P<quoted>(?:[^'\\]|\\.)*)'|(?P<punct>:-|[()\[\],.]))")
_OPERATORS = {"plus": PLUS, "minus": MINUS, "times": TIMES, "slash": SLASH, "hat": HAT,
              "union": UNION}
FUNCTORS = {"=": "num_eq", ">": "gt", "<": "lt", ">=": "ge", "<=": "le", "!=": "ne"}


class HornReader:
    """Reads one exported line, ``head :- body.`` or ``head.``, back into
    ``(functor, lhs, rhs)`` triples of terms, head first.  A variable is
    a :class:`Var` per name, shared by every line read with one reader.

    The export's functor syntax is read as :mod:`calang.horn` writes it:
    ``set([...])`` is a set, ``union(S, V)`` adds the union variable ``V``
    to the set ``S`` and any other ``union`` is a raw ``\\union`` tuple,
    ``tuple(...)`` is a tuple whose head is no symbol, and an operator's
    bare name is its reserved symbol.  A quoted atom is a source name as
    written, which is how the export escapes a source name spelled like
    one of these."""

    def __init__(self):
        self.variables: dict[str, Var] = {}

    def read(self, line: str) -> list[tuple]:
        self.tokens, self.at = [], 0
        while self.at < len(line):
            m = _TOKEN.match(line, self.at)
            assert m, line[self.at:]
            self.tokens.append((m.lastgroup, m.group(m.lastgroup)))
            self.at = m.end()
        self.at = 0
        preds = [self.predicate()]
        if self.accept(":-"):
            preds.append(self.predicate())
            while self.accept(","):
                preds.append(self.predicate())
        self.expect(".")
        assert self.at == len(self.tokens), line
        return preds

    def accept(self, punct: str) -> bool:
        if self.at < len(self.tokens) and self.tokens[self.at] == ("punct", punct):
            self.at += 1
            return True
        return False

    def expect(self, punct: str) -> None:
        assert self.accept(punct), (punct, self.tokens[self.at:])

    def predicate(self) -> tuple:
        kind, functor = self.tokens[self.at]
        assert kind == "atom", functor
        self.at += 1
        self.expect("(")
        lhs = self.term()
        self.expect(",")
        rhs = self.term()
        self.expect(")")
        return functor, lhs, rhs

    def arguments(self, close: str) -> list:
        args = []
        if not self.accept(close):
            args.append(self.term())
            while self.accept(","):
                args.append(self.term())
            self.expect(close)
        return args

    def term(self):
        kind, text = self.tokens[self.at]
        self.at += 1
        if kind == "num":
            return Num(Fraction(text))
        if kind == "var":
            return self.variables.setdefault(text, Var(("h", len(self.variables)), text, LOCAL))
        if kind == "punct" and text == "[":
            return self.arguments("]")
        assert kind in ("atom", "quoted"), text
        if kind == "quoted":
            sym = Sym(re.sub(r"\\(.)", r"\1", text))
            return Tup((sym, *self.arguments(")"))) if self.accept("(") else sym
        if not self.accept("("):
            return Sym(_OPERATORS.get(text, text))
        args = self.arguments(")")
        if text == "set":
            (elements,) = args
            return SetTerm(elements)
        if text == "union":
            first, operand = args
            if isinstance(first, SetTerm) and isinstance(operand, Var):
                return SetTerm(first.elements, (*first.union_vars, operand))
            if isinstance(first, Tup) and first.head == UNION_SYM:
                return Tup((*first.members, operand))
            return Tup((UNION_SYM, first, operand))
        if text == "tuple":
            return Tup(tuple(args))
        return Tup((Sym(_OPERATORS.get(text, text)), *args))


def canonical(terms: list) -> list:
    """``terms`` with their variables renamed by first appearance: two
    lists are equal up to a renaming of variables exactly when their
    canonical forms are equal."""
    renamed: dict[Var, Var] = {}

    def rename(v: Var) -> Var:
        return renamed.setdefault(v, Var(("c", len(renamed)), "_", LOCAL))

    return [map_vars(t, rename) for t in terms]


def expected_functor(p) -> str:
    # The walk unifies a :=:, and a = whose written right side is a set.
    if p.op == ":=:" or (p.op == "=" and classify(p.rhs) == SET):
        return "eq"
    return FUNCTORS[p.op]


def assert_reads_back(decls) -> None:
    """Every exported line reads back to its flattened predicates, the
    assertion and then the conditions, up to a renaming of variables per
    source clause, each under the functor the predicate's meaning
    gives."""
    groups: list[list[str]] = []
    for line in export_horn(decls).splitlines():
        if re.match(r"% \S+ clause \d+ \(", line):
            groups.append([])
        elif line and not line.startswith("%"):
            groups[-1].append(line)
    clauses = [c for d in decls for c in d.clauses]
    assert len(groups) == len(clauses)
    for clause, lines in zip(clauses, groups):
        assert len(lines) == len(clause.assertions)
        reader = HornReader()
        read = [p for line in lines for p in reader.read(line)]
        want = [p for a in clause.assertions for p in (a, *clause.conditions)]
        assert [functor for functor, _, _ in read] == [expected_functor(p) for p in want], lines
        assert (canonical([t for _, lhs, rhs in read for t in (lhs, rhs)])
                == canonical([t for p in want for t in (p.lhs, p.rhs)])), lines


class TestReadBack:
    @pytest.mark.parametrize("path", sorted(Path(__file__).parent.glob("fixtures/*.cal")),
                             ids=lambda path: path.name)
    def test_fixture(self, path):
        assert_reads_back(load_boxes(path))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32))
    def test_generated_declaration(self, seed):
        assert_reads_back([parse_box(DeclGenerator(seed).gen_declaration())])

    def test_reader_reads_each_kind_of_term(self):
        box = parse_box("box b ((x) -> (y)): $x :=: {a, Type(1)} \\/ $v, $x > -3/2 => "
                        "$y = ($x, $v) + f($z, 2), $y = 3 \\/ {a} \\/ $w, $y = {} \\/ $v \\/ 3;")
        # Symbols that no source spells, whose names the export quotes.
        odd = Predicate(box.object_vars["y"], ":=:", Tup((Sym("it's"), Sym("\\log"))))
        box.clauses += (replace(box.clauses[0], conditions=(), assertions=(odd,)),)
        assert_reads_back([box])

    @pytest.mark.parametrize("imitation, term", [
        ("union({a}, $v)", "{a} \\/ $v"), ("plus(1, 2)", "1 + 2"), ("tuple(1, b)", "(1, b)"),
        ("set(a, b)", "{a, b}")])
    def test_a_source_name_spelled_like_an_export_functor_is_escaped(self, imitation, term):
        boxes = [parse_box(f"box b (() -> (y)): => $y :=: {t};") for t in (imitation, term)]
        texts = [export_horn([box]).splitlines()[-1] for box in boxes]
        assert texts[0] != texts[1]
        for box in boxes:
            assert_reads_back([box])
