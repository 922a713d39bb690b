from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from calang import syntax
from calang.terms import (
    ANONYMOUS,
    HAT,
    INDIVIDUAL,
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
    VarScope,
    VarSupply,
    check_set_wellformed,
    classify,
    desugar,
    fresh_variable,
    iter_vars,
    map_vars,
    term_text,
)


def d(text: str, scope=None):
    return desugar(syntax.parse_term(text), scope)


class TestDesugar:
    def test_infix_times_with_log(self):
        scope = VarScope()
        n = scope.lookup("N", 1)
        assert d("$N * log($N)", scope) == Tup((Sym(TIMES), n, Tup((Sym("log"), n))))

    def test_conventional_precedence(self):
        assert d("1 + 2 * 3") == Tup((Sym(PLUS), Num(Fraction(1)),
                                      Tup((Sym(TIMES), Num(Fraction(2)), Num(Fraction(3))))))

    def test_head_extraction_equivalent_to_tuple(self):
        assert d("a(b,c)") == Tup((Sym("a"), Sym("b"), Sym("c")))
        assert d("a(b,c)") == d("(a,b,c)")

    def test_union_chain_collapses_to_flat_set(self):
        scope = VarScope()
        t = d("{a} \\/ $v \\/ $w", scope)
        assert t == SetTerm([Sym("a")], [scope.known("v"), scope.known("w")])

    def test_same_name_interns_to_same_variable(self):
        scope = VarScope()
        t = d("($x, $x, $y)", scope)
        assert t.members[0] == t.members[1]
        assert t.members[0] != t.members[2]

    def test_anonymous_occurrences_are_distinct(self):
        t = d("($_, $_)")
        assert t.members[0] != t.members[1]
        assert all(m.anonymous for m in t.members)

    def test_idempotent_on_terms(self):
        t = d("$N * log($N) + {a} \\/ $v")
        assert desugar(t) == t

    def test_unary_minus_folds_numbers_only(self):
        assert d("-5") == Num(Fraction(-5))
        scope = VarScope()
        t = d("-$x", scope)
        assert t == Tup((Sym(MINUS), scope.known("x")))

    def test_ill_formed_union_kept_raw(self):
        t = d("{a} \\/ b")
        assert isinstance(t, Tup)
        assert t.head == Sym(UNION)

    def test_no_infix_node_survives(self):
        def no_surface(x):
            assert not isinstance(x, (syntax.Binary, syntax.Unary))
            if isinstance(x, Tup):
                for m in x.members:
                    no_surface(m)
            if isinstance(x, SetTerm):
                for e in x.elements:
                    no_surface(e)

        no_surface(d("1 + 2 ^ 3 * (-4) - {a} \\/ $v \\/ {b, c(d)}"))


def shunting_yard(tokens):
    """Reference construction for infix precedence (independent of the
    recursive-descent parser)."""
    prec = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}
    sym = {"+": PLUS, "-": MINUS, "*": TIMES, "/": SLASH, "^": HAT}
    out, ops = [], []

    def reduce_one():
        op = ops.pop()
        rhs = out.pop()
        lhs = out.pop()
        out.append(Tup((Sym(sym[op]), lhs, rhs)))

    for tok in tokens:
        if isinstance(tok, int):
            out.append(Num(Fraction(tok)))
        else:
            while ops and prec[ops[-1]] >= prec[tok]:  # left-associative
                reduce_one()
            ops.append(tok)
    while ops:
        reduce_one()
    return out[0]


@given(st.lists(st.sampled_from("+-*/^"), min_size=1, max_size=8),
       st.lists(st.integers(min_value=0, max_value=99), min_size=9, max_size=9))
def test_precedence_matches_shunting_yard(ops, nums):
    tokens = [nums[0]]
    text = str(nums[0])
    for i, op in enumerate(ops):
        tokens.append(op)
        tokens.append(nums[i + 1])
        text += f" {op} {nums[i + 1]}"
    assert d(text) == shunting_yard(tokens)


@given(st.integers(min_value=-10**12, max_value=10**12),
       st.integers(min_value=1, max_value=10**12))
def test_number_normalization(n, dd):
    from math import gcd

    value = Num(Fraction(n, dd)).value
    assert value.denominator > 0
    assert gcd(value.numerator, value.denominator) == 1


class TestClassify:
    def test_set_literal(self):
        assert classify(d("{1, 2}")) == SET

    def test_tuple_is_individual(self):
        assert classify(d("(a, b)")) == INDIVIDUAL

    def test_union_headed_tuple_counts_as_set(self):
        t = Tup((Sym(UNION), SetTerm([Sym("a")]), SetTerm([Sym("b")])))
        assert classify(t) == SET

    def test_basics(self):
        assert classify(Num(Fraction(1))) == INDIVIDUAL
        assert classify(Sym("a")) == INDIVIDUAL


class TestSetWellformed:
    def test_set_with_set_member(self):
        assert check_set_wellformed(d("{a, {b}}")) is not None

    def test_union_with_symbol_operand(self):
        assert check_set_wellformed(d("{a} \\/ b")) is not None

    def test_union_with_variable_is_fine(self):
        assert check_set_wellformed(d("{a} \\/ $v")) is None

    def test_plain_terms_are_fine(self):
        assert check_set_wellformed(d("shape(7, (7, nil))")) is None

    def test_violation_found_deep_inside(self):
        assert check_set_wellformed(d("f(({a, {b}}, c))")) is not None

    def test_unmerged_union_of_sets(self):
        # Desugaring never leaves one; unify matches it with nothing.
        raw = Tup((UNION_SYM, SetTerm([Sym("a")]), SetTerm([], [Var(("t", 0), "v", LOCAL)])))
        assert check_set_wellformed(raw) is not None
        assert check_set_wellformed(SetTerm([Tup((Sym("f"), raw))])) is not None


class TestFreshVariables:
    def test_fresh_distinct_from_parsed(self):
        scope = VarScope()
        d("($x, $y)", scope)
        v = fresh_variable(scope.supply)
        assert v not in scope.interned()

    def test_thousand_distinct(self):
        supply = VarSupply()
        vs = [fresh_variable(supply) for _ in range(1000)]
        assert len(set(vs)) == 1000

    def test_fresh_is_local_category(self):
        assert fresh_variable(VarSupply()).category == LOCAL


class TestSetTermEquality:
    def test_element_order_ignored(self):
        assert SetTerm([Sym("a"), Sym("b")]) == SetTerm([Sym("b"), Sym("a")])

    def test_duplicates_collapse(self):
        assert SetTerm([Sym("a"), Sym("a")]) == SetTerm([Sym("a")])

    def test_union_vars_as_multiset(self):
        v = Var(("t", 1), "v", LOCAL)
        w = Var(("t", 2), "w", LOCAL)
        assert SetTerm([], [v, w]) == SetTerm([], [w, v])
        assert SetTerm([], [v]) != SetTerm([], [w])

    def test_display_order_preserved(self):
        s = SetTerm([Sym("b"), Sym("a")])
        assert term_text(s) == "{b, a}"

    def test_equal_terms_hash_equal(self):
        a, b = Sym("a"), Sym("b")
        v = Var(("t", 1), "v", LOCAL)
        w = Var(("t", 2), "w", LOCAL)
        pairs = [
            (SetTerm([a, b, Tup((a, b))], [v, w]),
             SetTerm([Tup((a, b)), b, a, b], [w, v, w])),
            (Num(1), Num(Fraction(1))),
            (Num(Fraction(6, 4)), Num(Fraction(3, 2))),
            (Tup((a, SetTerm([a, b], [v]))), Tup((a, SetTerm([b, a, a], [v, v])))),
        ]
        for t1, t2 in pairs:
            hash(t1)  # one side's hash is cached before the other's is computed
            assert t1 == t2 and t2 == t1
            assert hash(t1) == hash(t2)
            assert len({t1, t2}) == 1
        # Duplicates collapse onto their first occurrence.
        assert SetTerm([b, a, b], [w, v, w]).elements == (b, a)
        assert SetTerm([b, a, b], [w, v, w]).union_vars == (w, v)

    def test_variable_identity_is_its_vid(self):
        v1, v2 = Var(("t", 1), "v", LOCAL), Var(("t", 1), "w", ANONYMOUS)
        assert v1 == v2 and hash(v1) == hash(v2) == hash(("t", 1))
        assert {v1: 1}[v2] == 1
        assert v1 != Var(("t", 2), "v", LOCAL)

    def test_ground_flag(self):
        a = Sym("a")
        x = Var(("t", 1), "x", LOCAL)
        assert Tup((a, Num(2), SetTerm([Tup((a, a))]))).ground
        assert not Tup((a, Tup((a, x)))).ground
        assert not SetTerm([a], [x]).ground
        assert not SetTerm([Tup((x,))]).ground
        assert SetTerm().ground


class TestTraversal:
    a, b = Sym("a"), Sym("b")
    x, y = Var(("t", 1), "x", LOCAL), Var(("t", 2), "y", LOCAL)
    v, w = Var(("t", 3), "v", LOCAL), Var(("t", 4), "w", LOCAL)

    def test_iter_vars_left_to_right_with_repeats(self):
        t = Tup((self.x, SetTerm([Tup((self.y, self.a)), self.x], [self.v]), self.w))
        assert list(iter_vars(t)) == [self.x, self.y, self.x, self.v, self.w]

    def test_map_vars_union_variable_rules(self):
        t = SetTerm([self.a], [self.v])
        to_set = {self.v: SetTerm([self.b], [self.w])}
        assert map_vars(t, lambda u: to_set.get(u, u)) == SetTerm([self.a, self.b], [self.w])
        assert map_vars(t, lambda u: self.w) == SetTerm([self.a], [self.w])
        # An individual cannot join a union: the variable stays in place.
        assert map_vars(t, lambda u: self.b) == t

    def test_map_vars_replaces_element_variables(self):
        t = Tup((self.x, SetTerm([self.x, self.a])))
        assert map_vars(t, lambda u: self.b) == Tup((self.b, SetTerm([self.b, self.a])))

    def test_map_vars_returns_unchanged_term_itself(self):
        for t in (Tup((self.a, Tup((self.x, self.b)))),
                  SetTerm([self.a, Tup((self.y,))], [self.v, self.w])):
            assert map_vars(t, lambda u: u) is t
        # An individual cannot join a union, so the set stays as it is.
        t = SetTerm([self.a], [self.v])
        assert map_vars(t, lambda u: self.b) is t


GROUND_TERMS = st.recursive(
    st.sampled_from([Sym("a"), Sym("b"), Num(Fraction(1, 2))]),
    lambda children: (st.lists(children, max_size=3).map(lambda ms: Tup(tuple(ms)))
                      | st.lists(children, max_size=3).map(SetTerm)),
    max_leaves=8)


@given(GROUND_TERMS)
def test_map_vars_returns_ground_term_itself(t):
    assert map_vars(t, lambda u: u) is t
    assert list(iter_vars(t)) == []


# Surface terms in every shape the parser builds; ``$_`` is left out
# because each occurrence desugars to a fresh variable.
SURFACE_TERMS = st.recursive(
    st.one_of(
        st.fractions(min_value=-20, max_value=20, max_denominator=4).map(syntax.NumberLit),
        st.sampled_from(["a", "nil", "log", "x_1"]).map(syntax.Name),
        st.sampled_from([("x", 1), ("y", 1), ("n", 2)]).map(lambda v: syntax.VarRef(*v)),
        st.just(syntax.SetLit(())),
    ),
    lambda children: st.one_of(
        st.tuples(st.sampled_from("+-"), children).map(lambda t: syntax.Unary(*t)),
        st.tuples(st.sampled_from(["+", "-", "*", "/", "^", "\\/"]), children, children).map(
            lambda t: syntax.Binary(*t)),
        st.lists(children, min_size=2, max_size=3).map(
            lambda ms: syntax.TupleLit(tuple(ms))),
        st.tuples(st.sampled_from(["f", "value"]), st.lists(children, min_size=1, max_size=3))
        .map(lambda t: syntax.HeadTuple(t[0], tuple(t[1]))),
        st.lists(children, max_size=3).map(lambda ms: syntax.SetLit(tuple(ms))),
    ),
    max_leaves=8)


@settings(max_examples=300)
@given(SURFACE_TERMS)
def test_term_text_round_trips_desugared_terms(node):
    scope = VarScope()
    t = desugar(node, scope)
    assert desugar(syntax.parse_term(term_text(t)), scope) == t


class TestTermText:
    @pytest.mark.parametrize("text", [
        "7 * log(7) / 4", "7 ^ 3/2", "{value(500), Type(int)}",
        "shape(7, (7, nil))", "{a} \\/ $v", "1 + 2 * 3", "(1 + 2) * 3",
        "- - $x", "{} \\/ $v", "({a} \\/ $v) \\/ b",
    ])
    def test_round_trips_through_parser(self, text):
        t = d(text)
        assert desugar(syntax.parse_term(term_text(t))) == t

    @pytest.mark.parametrize("text, rendered", [
        # "--" would start a comment.
        ("- - $x", "-(-$x)"),
        # "$v" alone would read back as an individual.
        ("{} \\/ $v", "{} \\/ $v"),
        ("$v \\/ $w", "$v \\/ $w"),
        # A raw union of a set and a symbol: the set's union needs no
        # parentheses as the first operand.
        ("({a} \\/ $v) \\/ b", "{a} \\/ $v \\/ b"),
        ("b \\/ ({a} \\/ $v)", "b \\/ ({a} \\/ $v)"),
    ])
    def test_rendering(self, text, rendered):
        assert term_text(d(text)) == rendered

    @pytest.mark.parametrize("text", [
        "{} \\/ ({} \\/ a)", "$v \\/ ($w \\/ a)", "$v \\/ ({a} \\/ b)", "{a} \\/ ($v \\/ (b \\/ {}))",
    ])
    def test_raw_union_with_leading_sets_round_trips(self, text):
        # The parser merges the sets and variables that lead a union, so
        # desugaring must merge them too for the text to read back.
        t = d(text)
        assert isinstance(t, Tup)
        assert desugar(syntax.parse_term(term_text(t))) == t

    def test_long_sum_renders(self):
        t = Num(Fraction(1))
        for _ in range(3000):
            t = Tup((Sym(PLUS), t, Num(Fraction(1))))
        assert term_text(t) == " + ".join(["1"] * 3001)

    def test_anonymous_renders_as_blackhole(self):
        assert term_text(d("$_")) == "$_"
