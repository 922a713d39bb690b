"""Clause and box evaluation tests, built around hand-executed
expectations for the worked two-output example and small fixtures."""

from fractions import Fraction

import pytest

from calang import syntax
from calang.clauses import (
    BoxEvaluation,
    Clause,
    SemanticError,
    branch_snapshot,
    evaluate_box,
    evaluate_condition,
    fire_clause,
    flatten_provided,
    input_store,
    parse_box,
)
from calang.terms import (
    ANONYMOUS,
    ENVIRONMENT,
    HAT,
    LOCAL,
    OBJECT,
    SLASH,
    TIMES,
    Num,
    SetTerm,
    Sym,
    Tup,
    Var,
    VarScope,
    VarSupply,
    desugar,
    term_text,
)
from calang.unify import BindingStore, resolve, unify


def term(text, scope=None):
    return desugar(syntax.parse_term(text), scope)


REAL_7X7 = "{Type(array, element(real), rank(2), shape(7,(7,nil))), packed(row_major)}"


def mybox_inputs(box, k_value):
    return input_store(
        box,
        {"a": term(REAL_7X7), "k": term("{value(%d), Type(int)}" % k_value)},
        {"nthreads": Num(Fraction(4))})


class TestFlattenProvided:
    def test_mybox_flattens_to_four_clauses(self, mybox_source):
        box = parse_box(mybox_source)
        assert len(box.clauses) == 4
        for c in box.clauses:
            assert c.inherited == 2
            # both guard conditions talk about $a and $k
            assert {term_text(p.lhs) for p in c.conditions[:2]} == {"$a", "$k"}

    def test_no_provided_blocks_unchanged(self):
        box = parse_box("box b ((x) -> (y)): $x = 1 => $y = 2;")
        (clause,) = box.clauses
        assert clause.inherited == 0
        assert len(clause.conditions) == 1

    def test_nested_provided_composes_outer_first(self):
        # hand-expansion: provided P1 use provided P2 use C => A end end
        # gives the clause (P1, P2, C) => A
        box = parse_box(
            "box b ((x) -> (y)):\n"
            "provided $x > 1 use\n"
            "  provided $x > 2 use\n"
            "    $x > 3 => $y = 1;\n"
            "  end;\n"
            "end;")
        (clause,) = box.clauses
        assert clause.inherited == 2
        conds = [str(p) for p in clause.conditions]
        assert conds == ["$x > 1", "$x > 2", "$x > 3"]

    def test_variable_categories(self, mybox_source):
        box = parse_box(mybox_source)
        assert box.object_vars["a"].category == OBJECT
        assert box.object_vars["b"].category == OBJECT
        assert box.env_vars["nthreads"].category == ENVIRONMENT
        scope_names = {v.name for v in box.object_vars.values()}
        assert scope_names == {"a", "k", "b", "c", "d"}

    def test_duplicate_input_field_rejected(self):
        with pytest.raises(SemanticError):
            parse_box("box b ((x,x) -> (y)):")


class TestEvaluateCondition:
    def test_pattern_extraction_absorbs_extras(self):
        # the provided condition against a bound subject: the trailing
        # "\/ $_" soaks up packed(row_major)
        from calang.clauses import Equivalence

        scope = VarScope(object_fields=["a"])
        var_a = scope.lookup("a", 1)
        pattern = term("{Type(array, element($t), rank(2), shape($n,($m,nil)))} \\/ $_", scope)
        pred = [Equivalence(var_a, pattern)]
        s = BindingStore().bind(var_a, term(REAL_7X7))
        stores = evaluate_condition(pred, s)
        assert stores
        for st in stores:
            assert resolve(scope.known("t"), st) == Sym("real")
            assert resolve(scope.known("n"), st) == Num(Fraction(7))
            assert resolve(scope.known("m"), st) == Num(Fraction(7))

    def test_empty_condition_is_true(self):
        s = BindingStore()
        assert evaluate_condition([], s) == [s]

    def test_failed_guard_empty(self):
        scope = VarScope()
        pred = syntax.parse_predicate("$kv > $$nthreads * 100")
        from calang.clauses import Relation

        rel = Relation(desugar(pred.lhs, scope), pred.op, desugar(pred.rhs, scope))
        s = (BindingStore()
             .bind(scope.known("kv"), Num(Fraction(100)))
             .bind(scope.known("nthreads", 2), Num(Fraction(4))))
        assert evaluate_condition([rel], s) == []


class TestFireClause:
    def test_union_assertion_merges(self, mybox_source):
        box = parse_box(mybox_source)
        store = mybox_inputs(box, 500)
        # clause 1 then clause 2, sharing the accumulating store
        fr1 = fire_clause(box.clauses[0], store, frozenset(box.input_vars))
        assert fr1.condition_held and fr1.stores
        fr2 = fire_clause(box.clauses[1], fr1.stores[0], frozenset(box.input_vars))
        assert fr2.stores
        b_val = resolve(box.object_vars["b"], fr2.stores[0])
        assert Tup((Sym("rank"), Num(Fraction(2)))) in b_val.elements

    def test_unsatisfied_condition_no_stores_no_failures(self):
        box = parse_box("box b ((x) -> (y)): $x > 10 => $y = 1;")
        s = input_store(box, {"x": Num(Fraction(1))})
        fr = fire_clause(box.clauses[0], s)
        assert not fr.condition_held and fr.stores == [] and fr.failures == []

    def test_env_var_assertion_binds(self, mybox_source):
        box = parse_box(mybox_source)
        ev = evaluate_box(box, mybox_inputs(box, 100))
        (br,) = ev.branches
        assert resolve(box.env_vars["M1"], br.store) == Num(Fraction(0))

    def test_failed_assertion_discards_branch_with_warning(self):
        box = parse_box("box b ((x) -> (y)): => $x = 1, $y = 2;")
        s = input_store(box, {"x": Num(Fraction(5))})
        ev = evaluate_box(box, s)
        assert ev.branches == []
        assert any(d.severity == "warning" for d in ev.diagnostics)

    def test_union_variable_aliased_either_way(self):
        # The variable named second has the larger id and is the one bound,
        # so v := w in one clause and w := v in the other.  Either way
        # {a} \/ $v must still unify with {a, b}.
        for alias in ("$w :=: $v", "$v :=: $w"):
            box = parse_box(f"box X ((i) -> (q)): => {alias}, "
                            "$q :=: {a} \\/ $v, $q :=: {a, b};")
            ev = evaluate_box(box)
            assert len(ev.branches) == 2, alias
            assert not [d for d in ev.diagnostics if d.severity == "warning"], alias


    def test_assertion_messages(self):
        # One box per kind of failing assertion, with the exact warning.
        cases = [
            ("=> $y :=: {a}, $y :=: {b};", "assertion cannot hold: $y :=: {b}"),
            ("=> $y = $z + 1;", "assertion failed (unbound-variable: z): $y = $z + 1"),
            ("=> $x = 1;", "assertion does not hold: $x = 1"),
        ]
        for body, message in cases:
            box = parse_box(f"box b ((x) -> (y)): {body}")
            ev = evaluate_box(box, input_store(box, {"x": Num(Fraction(5))}))
            assert ev.branches == []
            assert [d.message for d in ev.diagnostics if d.severity == "warning"] == [
                f"clause 1: {message}", "box b: no consistent evaluation branch"], body

    def test_two_condition_solutions_give_two_messages_in_order(self):
        # {$e, $f} matches {1, 3} as e=1, f=3 and as e=3, f=1: the first
        # solution fails the first assertion, the second the second one.
        box = parse_box("box b ((x) -> (y)): $x :=: {$e, $f} => $e > 1, $f > 1;")
        fr = fire_clause(box.clauses[0], input_store(box, {"x": term("{1, 3}")}),
                         frozenset(box.input_vars))
        assert fr.condition_held and fr.stores == []
        assert fr.failures == ["assertion does not hold: $e > 1",
                               "assertion does not hold: $f > 1"]


class TestEvaluateBox:
    def test_mybox_large_k(self, mybox_source):
        box = parse_box(mybox_source)
        ev = evaluate_box(box, mybox_inputs(box, 500))
        assert len(ev.branches) == 1
        br = ev.branches[0]
        assert br.fired == (0, 1, 2)
        b_val = resolve(box.object_vars["b"], br.store)
        assert b_val == term(
            "{Type(array, element(real), shape(8,(7,nil))), rank(2)}")
        d_val = resolve(box.object_vars["d"], br.store)
        assert d_val == term(
            "{Type(array, element(real), shape(8,(7,nil))), rank(3)}")
        t0 = resolve(box.env_vars["T0"], br.store)
        assert t0 == Tup((Sym(SLASH),
                          Tup((Sym(TIMES), Num(Fraction(7)),
                               Tup((Sym("log"), Num(Fraction(7)))))),
                          Num(Fraction(4))))
        assert resolve(box.env_vars["T1"], br.store) == Num(Fraction(1))
        assert box.env_vars.get("M1") is None or \
            br.store.binding(box.env_vars["M1"]) is None

    def test_mybox_small_k(self, mybox_source):
        box = parse_box(mybox_source)
        ev = evaluate_box(box, mybox_inputs(box, 100))
        (br,) = ev.branches
        assert br.fired == (0, 1, 3)
        assert resolve(box.env_vars["T1"], br.store) == Tup(
            (Sym(HAT), Num(Fraction(7)), Num(Fraction(3, 2))))
        assert resolve(box.env_vars["M1"], br.store) == Num(Fraction(0))
        assert br.store.binding(box.env_vars["T0"]) is None

    def test_mybox_missing_rank_means_no_assertions(self, mybox_source):
        box = parse_box(mybox_source)
        store = input_store(
            box,
            {"a": term("{Type(array, element(real), shape(7,(7,nil)))}"),
             "k": term("{value(500), Type(int)}")},
            {"nthreads": Num(Fraction(4))})
        ev = evaluate_box(box, store)
        assert [br.fired for br in ev.branches] == [()]
        assert len(ev.branches[0].store) == len(store)

    def test_no_inputs_means_no_firing(self, mybox_source):
        box = parse_box(mybox_source)
        ev = evaluate_box(box, BindingStore())
        assert [br.fired for br in ev.branches] == [()]

    def test_monotone_extension(self, mybox_source):
        box = parse_box(mybox_source)
        store = mybox_inputs(box, 500)
        ev = evaluate_box(box, store)
        for br in ev.branches:
            for var, value in store.items():
                assert br.store.binding(var) == value

    def test_deterministic(self, mybox_source):
        box1 = parse_box(mybox_source)
        box2 = parse_box(mybox_source)
        ev1 = evaluate_box(box1, mybox_inputs(box1, 500))
        ev2 = evaluate_box(box2, mybox_inputs(box2, 500))
        assert [branch_snapshot(b.store) for b in ev1.branches] == \
            [branch_snapshot(b.store) for b in ev2.branches]
        assert [b.fired for b in ev1.branches] == [b.fired for b in ev2.branches]

    def test_order_independence_of_disjoint_clauses(self):
        src_ab = ("box b ((x) -> (y,z)):\n"
                  "  $x > 0 => $y :=: {high};\n"
                  "  $x > 1 => $z :=: {wide};")
        src_ba = ("box b ((x) -> (y,z)):\n"
                  "  $x > 1 => $z :=: {wide};\n"
                  "  $x > 0 => $y :=: {high};")
        def named_content(box, store):
            # key by name: variable identities differ between parses
            return tuple(sorted(
                (v.name, term_text(resolve(v, store)))
                for v, _ in store.items() if not (v.anonymous or v.generated)))

        outs = []
        for src in (src_ab, src_ba):
            box = parse_box(src)
            ev = evaluate_box(box, input_store(box, {"x": Num(Fraction(5))}))
            outs.append({named_content(box, b.store) for b in ev.branches})
        assert outs[0] == outs[1]

    def test_anonymous_bindings_not_retrievable(self, mybox_source):
        box = parse_box(mybox_source)
        ev = evaluate_box(box, mybox_inputs(box, 500))
        (br,) = ev.branches
        assert br.store.lookup_name("_") is None
        anon_bound = [v for v, _ in br.store.items() if v.anonymous]
        assert anon_bound  # the guards each bound one black hole


class TestFreshVariableAccounting:
    def test_three_anon_occurrences_three_fresh_vars(self):
        box = parse_box(
            "box b ((x) -> (y)): $x :=: ($_, $_, $_) => $y = 1;")
        (clause,) = box.clauses
        anons = set()

        def collect(t):
            if isinstance(t, Var) and t.anonymous:
                anons.add(t)
            elif isinstance(t, Tup):
                for m in t.members:
                    collect(m)
            elif isinstance(t, SetTerm):
                for e in t.elements:
                    collect(e)
                for u in t.union_vars:
                    collect(u)

        for p in clause.conditions + clause.assertions:
            collect(p.lhs)
            collect(p.rhs)
        assert len(anons) == 3

        s = input_store(box, {"x": term("(1, 2, 3)")})
        ev = evaluate_box(box, s)
        (br,) = ev.branches
        bound_anons = [v for v, _ in br.store.items() if v.anonymous]
        assert len(bound_anons) == 3
        assert br.store.lookup_name("_") is None
