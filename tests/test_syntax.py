import time
from fractions import Fraction

import pytest

from calang import syntax
from calang.syntax import (
    ANON_VARIABLE,
    ENV_VARIABLE,
    NUMBER,
    VARIABLE,
    Binary,
    CalSyntaxError,
    HeadTuple,
    Name,
    NumberLit,
    ProvidedBlock,
    SetLit,
    SurfaceClause,
    TupleLit,
    VarRef,
    parse_declaration,
    parse_predicate,
    parse_program,
    parse_term,
    render,
    render_term,
    tokenize,
)


class TestTokenize:
    def test_single_dollar_variable(self):
        (tok, eof) = tokenize("$a")
        assert tok.kind == VARIABLE
        assert tok.value == ("a", 1)

    def test_double_dollar_variable(self):
        tok = tokenize("$$nthreads")[0]
        assert tok.kind == ENV_VARIABLE
        assert tok.value == ("nthreads", 2)

    def test_anonymous_variable(self):
        tok = tokenize("$_")[0]
        assert tok.kind == ANON_VARIABLE

    def test_integer_abbreviates_rational(self):
        tok = tokenize("5")[0]
        assert tok.kind == NUMBER
        assert tok.value == Fraction(5, 1)

    def test_rational_literal(self):
        tok = tokenize("3/2")[0]
        assert tok.value == Fraction(3, 2)

    def test_rational_only_without_spaces(self):
        kinds = [t.kind for t in tokenize("3 / 2")][:-1]
        assert kinds == [NUMBER, "infix-sign", NUMBER]

    def test_comment_runs_to_end_of_line(self):
        toks = tokenize("$a -- Clause 1\n$b")
        names = [t.value[0] for t in toks if t.kind == VARIABLE]
        assert names == ["a", "b"]

    def test_every_character_consumed_positions(self):
        toks = tokenize("box b\n  ($x)")
        assert toks[0].pos.line == 1
        assert toks[2].pos == syntax.Pos(2, 3)

    def test_stray_backslash_rejected(self):
        with pytest.raises(CalSyntaxError) as e:
            tokenize("a \\plus b")
        assert e.value.pos.col == 3

    def test_dollar_needs_name(self):
        with pytest.raises(CalSyntaxError):
            tokenize("$1")

    def test_zero_denominator_rejected(self):
        with pytest.raises(CalSyntaxError):
            tokenize("5/0")

    def test_operator_tokens(self):
        text = ":=: => -> >= <= != = > < + - * / ^ \\/"
        kinds = [t.kind for t in tokenize(text)][:-1]
        assert kinds == ["equivops", "arrow", "arrow", "relop", "relop", "relop",
                         "relop", "relop", "relop", "infix-sign", "infix-sign",
                         "infix-sign", "infix-sign", "infix-sign", "infix-sign"]


class TestClassificationPerCall:
    """tokenize classifies each distinct text once per call, with that
    call's operator table, where the text first occurs."""

    def test_network_operators_stay_with_the_network(self):
        _, net = syntax.parse_network("net n = A .. (B | C)", syntax.Pos(1, 1))
        assert isinstance(net, syntax.NetSerial)
        assert isinstance(net.stages[1], syntax.NetParallel)
        for text, bad in (("$a = b | c", "|"), ("$a = b .. c | d", ".")):
            with pytest.raises(CalSyntaxError) as e:
                tokenize(text)
            assert e.value.message == f"unexpected character {bad!r}"
            assert e.value.pos == syntax.Pos(1, 8)

    def test_repeated_bad_text_reports_its_first_position(self):
        with pytest.raises(CalSyntaxError) as e:
            tokenize("$a = $1 +\n  $1")
        assert e.value.pos == syntax.Pos(1, 6)

    def test_repeated_text_keeps_each_position(self):
        toks = tokenize("$x + 3/2\n $x * 3/2")
        assert [(t.text, t.pos, t.value) for t in toks if t.kind in (VARIABLE, NUMBER)] == [
            ("$x", syntax.Pos(1, 1), ("x", 1)), ("3/2", syntax.Pos(1, 6), Fraction(3, 2)),
            ("$x", syntax.Pos(2, 2), ("x", 1)), ("3/2", syntax.Pos(2, 7), Fraction(3, 2))]


class TestParseTerm:
    def test_set_of_three_members(self):
        t = parse_term("{$A, 12, shape}")
        assert t == SetLit((VarRef("A", 1), NumberLit(Fraction(12)), Name("shape")))

    def test_head_tuple(self):
        t = parse_term("Poisson(1/$N)")
        assert t == HeadTuple("Poisson", (Binary("/", NumberLit(Fraction(1)), VarRef("N", 1)),))

    def test_parenthesized_term_is_grouping(self):
        assert parse_term("(a)") == Name("a")

    def test_comma_makes_tuple(self):
        assert parse_term("(a, b)") == TupleLit((Name("a"), Name("b")))

    def test_head_sugar_allows_space(self):
        assert parse_term("shape (7, nil)") == parse_term("shape(7, nil)")

    def test_precedence(self):
        t = parse_term("1 + 2 * 3")
        assert t == Binary("+", NumberLit(Fraction(1)),
                           Binary("*", NumberLit(Fraction(2)), NumberLit(Fraction(3))))

    def test_union_binds_loosest(self):
        t = parse_term("{a} \\/ $v \\/ $w")
        assert t == Binary("\\/", Binary("\\/", SetLit((Name("a"),)), VarRef("v", 1)),
                           VarRef("w", 1))

    def test_unary_minus_folds_into_number(self):
        assert parse_term("-5") == NumberLit(Fraction(-5))

    def test_unary_minus_covers_product(self):
        t = parse_term("-$x ^ 2")
        assert t == syntax.Unary("-", Binary("^", VarRef("x", 1), NumberLit(Fraction(2))))

    def test_rational_exponent(self):
        t = parse_term("$m^(3/2)")
        assert t == Binary("^", VarRef("m", 1), NumberLit(Fraction(3, 2)))

    def test_nested_set_literal_parses(self):
        # Ill-formed semantically, but accepted here; predicates fail later.
        t = parse_term("{a, {b}}")
        assert t == SetLit((Name("a"), SetLit((Name("b"),))))

    def test_error_carries_position(self):
        with pytest.raises(CalSyntaxError) as e:
            parse_term("(a,,b)")
        assert e.value.pos.line == 1 and e.value.pos.col == 4


class TestParseDeclaration:
    def test_mybox_listing(self, mybox_source):
        decl = parse_declaration(mybox_source)
        assert decl.header.name == "MYBOX"
        assert decl.header.inputs == ("a", "k")
        assert decl.header.outputs == (("b",), ("c", "d"))
        assert len(decl.decls) == 1
        block = decl.decls[0]
        assert isinstance(block, ProvidedBlock)
        assert len(block.conditions) == 2
        assert len(block.body) == 4
        assert all(isinstance(c, SurfaceClause) for c in block.body)
        # the ';' between clause 4's assertions merges them
        assert len(block.body[3].assertions) == 2

    def test_empty_declaration_list(self):
        decl = parse_declaration("box b (() -> ):")
        assert decl.header.inputs == ()
        assert decl.header.outputs == ()
        assert decl.decls == ()

    def test_multi_output_header(self):
        decl = parse_declaration("box boxname ((a,b,n) -> (d,e), (f,g,q,r)):")
        assert decl.header.inputs == ("a", "b", "n")
        assert decl.header.outputs == (("d", "e"), ("f", "g", "q", "r"))

    def test_both_header_forms_agree(self):
        a = parse_declaration("box B ((x) -> (y)):  => $y = 1;")
        b = parse_declaration("box B: (x) => (y)  => $y = 1;")
        assert a == b

    def test_empty_condition_clause(self):
        decl = parse_declaration("box b ((x) -> (y)):  => $y = 1;")
        clause = decl.decls[0]
        assert clause.conditions == ()
        assert len(clause.assertions) == 1

    def test_trailing_semicolon_optional(self):
        with_semi = parse_declaration("box b ((x) -> (y)): => $y = 1;")
        without = parse_declaration("box b ((x) -> (y)): => $y = 1")
        assert with_semi == without

    def test_missing_arrow_is_error(self):
        with pytest.raises(CalSyntaxError) as e:
            parse_declaration("box b ((x) -> (y)): $x = 1;")
        assert "=>" in str(e.value)

    def test_unbalanced_parens_is_error(self):
        with pytest.raises(CalSyntaxError):
            parse_declaration("box b ((x -> (y)): => $y = 1;")

    def test_relation_lhs_must_be_variable_or_constant(self):
        parse_predicate("5 > $x")
        parse_predicate("-5 > $x")
        with pytest.raises(CalSyntaxError):
            parse_predicate("$x + 1 > 5")

    def test_lexical_error_after_a_syntax_error_is_reported(self):
        # The whole text is tokenized before it is parsed.
        with pytest.raises(CalSyntaxError) as e:
            parse_program("box B ((x) -> (y)): => $y = ;\n$1")
        assert e.value.pos == syntax.Pos(2, 1)
        assert e.value.message == "'$' must be followed by a letter or underscore"

    def test_program_with_two_boxes(self):
        prog = parse_program("box A ((x) -> (y)): => $y = 1;\nbox B (() -> ):")
        assert [d.header.name for d in prog] == ["A", "B"]


class TestRender:
    def test_mybox_round_trip(self, mybox_source):
        ast = parse_declaration(mybox_source)
        assert parse_declaration(render(ast)) == ast

    def test_empty_box_canonical_form(self):
        assert render(parse_declaration("box b (() -> ):")) == "box b (() -> ):"

    def test_render_normalizes_rationals(self):
        assert render_term(parse_term("5/1")) == "5"
        assert render_term(parse_term("6/4")) == "3/2"

    def test_alternate_header_renders_canonically(self):
        decl = parse_declaration("box B: (x) => (y)")
        assert render(decl) == "box B ((x) -> (y)):"

    def test_parens_only_where_needed(self):
        for text in ["1 + 2 * 3", "(1 + 2) * 3", "1 - (2 - 3)", "-(1 + 2)",
                     "2 ^ (-3)", "{a} \\/ $v", "a(b, (c, d))"]:
            assert parse_term(render_term(parse_term(text))) == parse_term(text)


class TestCharacterClasses:
    def test_non_decimal_digit_is_an_unexpected_character(self):
        with pytest.raises(CalSyntaxError) as e:
            tokenize("$b = 1 + ²")
        assert e.value.message == "unexpected character '²'"
        assert e.value.pos == syntax.Pos(1, 10)

    def test_number_stops_before_non_decimal_digit(self):
        with pytest.raises(CalSyntaxError) as e:
            tokenize("12²")
        assert e.value.pos.col == 3

    def test_decimal_digits_of_any_script_are_numbers(self):
        (tok, _) = tokenize("٣")  # ARABIC-INDIC DIGIT THREE
        assert tok.kind == NUMBER and tok.value == Fraction(3)

    def test_unicode_letters_and_whitespace(self):
        toks = tokenize("é\u00a0$x²\u2003été")  # NO-BREAK SPACE, EM SPACE
        assert [(t.kind, t.text) for t in toks][:-1] == [
            ("identifier", "é"), (VARIABLE, "$x²"), ("identifier", "été")]
        assert toks[2].pos == syntax.Pos(1, 7)


def chain(n: int) -> str:
    """A sum of ``n`` ones: a left-associative spine of ``n - 1`` operators."""
    return "+".join(["1"] * n)


def parens(n: int) -> str:
    return "(" * n + "1" + ")" * n


class TestNestingBound:
    def test_terms_at_the_bound_parse(self):
        parse_term(chain(syntax.MAX_TERM_DEPTH + 1))
        parse_term(parens(syntax.MAX_TERM_DEPTH))
        parse_term("- " * syntax.MAX_TERM_DEPTH + "$x")

    def test_operator_past_the_bound_is_reported_at_itself(self):
        with pytest.raises(CalSyntaxError) as e:
            parse_term(chain(5000))
        assert e.value.message.startswith("term nested too deeply")
        assert e.value.pos.col == 2 * (syntax.MAX_TERM_DEPTH + 1)

    def test_bracket_past_the_bound_is_reported_at_itself(self):
        for opener in ("(", "{", "f("):
            text = "$y = " + opener * (syntax.MAX_TERM_DEPTH + 1) + "1"
            with pytest.raises(CalSyntaxError) as e:
                parse_predicate(text)
            assert e.value.message.startswith("term nested too deeply")
            assert e.value.pos.col == 5 + len(opener) * (syntax.MAX_TERM_DEPTH + 1)

    def test_signs_count(self):
        with pytest.raises(CalSyntaxError):
            parse_term("- " * (syntax.MAX_TERM_DEPTH + 1) + "$x")

    def test_operators_applied_after_a_bracket_count(self):
        # Each level is a bracket around a sum of m terms, applied as the
        # first operand of the next level: no bracket is nested more than
        # k deep and no sum is longer than m, but the tree is k * m deep.
        k = m = 20
        text = "1"
        for _ in range(k):
            text = "(" + text + "+1" * (m - 1) + ")"
        assert k * m > syntax.MAX_TERM_DEPTH > k + m
        with pytest.raises(CalSyntaxError) as e:
            parse_term(text)
        assert e.value.message.startswith("term nested too deeply")


class TestRenderSigns:
    def test_sign_on_a_sign_round_trips(self):
        t = parse_term("- - $x")
        assert render_term(t) == "-(-$x)"
        assert parse_term(render_term(t)) == t


def test_trailing_whitespace_takes_linear_time():
    started = time.monotonic()
    toks = tokenize("box" + " " * 100_000 + "\n ")
    assert time.monotonic() - started < 5  # a quadratic scan takes minutes
    assert toks[-1].kind == syntax.EOF and toks[-1].pos == syntax.Pos(2, 2)
