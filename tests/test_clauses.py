"""Clause and box evaluation tests, built around hand-executed
expectations for the worked two-output example and small fixtures."""

from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from calang import aggregate, clauses, syntax
from calang import unify as unify_module
from calang.aggregate import instance_input_store
from calang.arith import PredicateFailure, eval_relation
from calang.clauses import (
    Branch,
    Clause,
    Predicate,
    SemanticError,
    branch_snapshot,
    evaluate_box,
    evaluate_condition,
    fire_clause,
    flatten_provided,
    merge_branches,
    parse_box,
)
from calang.cli import _store_table
from calang.terms import (
    ANONYMOUS,
    ENVIRONMENT,
    HAT,
    LOCAL,
    OBJECT,
    SET,
    SLASH,
    TIMES,
    Num,
    SetTerm,
    Sym,
    Tup,
    Var,
    VarScope,
    VarSupply,
    classify,
    desugar,
    iter_vars,
    term_text,
)
from calang.unify import BindingStore, resolve, unify


def term(text, scope=None):
    return desugar(syntax.parse_term(text), scope)


REAL_7X7 = "{Type(array, element(real), rank(2), shape(7,(7,nil))), packed(row_major)}"


def local(box, name):
    """The box's local variable ``$name``."""
    return next(v for c in box.clauses for p in c.conditions + c.assertions
                for t in (p.lhs, p.rhs) for v in iter_vars(t) if v.name == name)


def mybox_inputs(box, k_value):
    return instance_input_store(box, (box.name,), {
        (box.name, "$a"): term(REAL_7X7),
        (box.name, "$k"): term("{value(%d), Type(int)}" % k_value),
        (None, "$$nthreads"): Num(Fraction(4))})


class TestFlattenProvided:
    def test_mybox_flattens_to_four_clauses(self, mybox_source):
        box = parse_box(mybox_source)
        assert len(box.clauses) == 4
        for c in box.clauses:
            assert c.guards == (0, 1)  # every clause copies the same two guards
            # both guard conditions talk about $a and $k
            assert {term_text(p.lhs) for p in c.conditions[:2]} == {"$a", "$k"}

    def test_no_provided_blocks_unchanged(self):
        box = parse_box("box b ((x) -> (y)): $x = 1 => $y = 2;")
        (clause,) = box.clauses
        assert len(clause.guards) == 0
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
        assert len(clause.guards) == 2
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
        scope = VarScope(object_fields=["a"])
        var_a = scope.lookup("a", 1)
        pattern = term("{Type(array, element($t), rank(2), shape($n,($m,nil)))} \\/ $_", scope)
        pred = [Predicate(var_a, ":=:", pattern)]
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
        rel = Predicate(desugar(pred.lhs, scope), pred.op, desugar(pred.rhs, scope))
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
        s = BindingStore().bind(box.object_vars["x"], Num(Fraction(1)))
        fr = fire_clause(box.clauses[0], s)
        assert not fr.condition_held and fr.stores == [] and fr.failures == []

    def test_env_var_assertion_binds(self, mybox_source):
        box = parse_box(mybox_source)
        ev = evaluate_box(box, mybox_inputs(box, 100))
        (br,) = ev.branches
        assert resolve(box.env_vars["M1"], br.store) == Num(Fraction(0))

    def test_failed_assertion_discards_branch_with_warning(self):
        box = parse_box("box b ((x) -> (y)): => $x = 1, $y = 2;")
        s = BindingStore().bind(box.object_vars["x"], Num(Fraction(5)))
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
            ev = evaluate_box(box, BindingStore().bind(box.object_vars["x"], Num(Fraction(5))))
            assert ev.branches == []
            assert [d.message for d in ev.diagnostics if d.severity == "warning"] == [
                f"clause 1: {message}", "box b: no consistent evaluation branch"], body

    def test_two_condition_solutions_give_two_messages_in_order(self):
        # {$e, $f} matches {1, 3} as e=1, f=3 and as e=3, f=1: the first
        # solution fails the first assertion, the second the second one.
        box = parse_box("box b ((x) -> (y)): $x :=: {$e, $f} => $e > 1, $f > 1;")
        fr = fire_clause(box.clauses[0], BindingStore().bind(box.object_vars["x"], term("{1, 3}")),
                         frozenset(box.input_vars))
        assert fr.condition_held and fr.stores == []
        assert fr.failures == ["assertion does not hold: $e > 1",
                               "assertion does not hold: $f > 1"]


class TestEquivalenceOrRelation:
    """A ``=`` whose written right side is a set is an equivalence,
    unified like ``:=:``; any other ``=`` is a numeric relation.  The
    written terms decide, never a run-time value."""

    def warnings(self, body):
        box = parse_box(f"box b ((x) -> (y)): {body}")
        ev = evaluate_box(box)
        return ev.branches, [d.message for d in ev.diagnostics if d.severity == "warning"]

    def test_a_bound_variable_and_a_written_set_are_a_set_equality(self):
        branches, warnings = self.warnings("=> $d = {a, b}, $d = {b, a}, $y = 1;")
        assert len(branches) == 1 and warnings == []
        branches, warnings = self.warnings("=> $d = {a, b}, $d = {a, c};")
        assert branches == []
        assert warnings == ["clause 1: assertion cannot hold: $d = {a, c}",
                            "box b: no consistent evaluation branch"]

    def test_a_variable_that_holds_a_set_is_numeric(self):
        branches, warnings = self.warnings("=> $s :=: {a}, $d = $s;")
        assert branches == []
        assert warnings == ["clause 1: assertion failed (set-in-arith: {a}): $d = $s",
                            "box b: no consistent evaluation branch"]

    @pytest.mark.parametrize("predicate", ["3 = {a}", "$d = {a} \\/ b", "$d = {a, {b}}"])
    def test_a_written_set_that_cannot_unify_cannot_hold(self, predicate):
        branches, warnings = self.warnings(f"=> {predicate};")
        assert branches == []
        assert warnings == [f"clause 1: assertion cannot hold: {predicate}",
                            "box b: no consistent evaluation branch"]


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
        store = instance_input_store(box, (box.name,), {
            (box.name, "$a"): term("{Type(array, element(real), shape(7,(7,nil)))}"),
            (box.name, "$k"): term("{value(500), Type(int)}"),
            (None, "$$nthreads"): Num(Fraction(4))})
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
            ev = evaluate_box(box, BindingStore().bind(box.object_vars["x"], Num(Fraction(5))))
            outs.append({named_content(box, b.store) for b in ev.branches})
        assert outs[0] == outs[1]

    def test_anonymous_bindings_not_retrievable(self, mybox_source):
        box = parse_box(mybox_source)
        ev = evaluate_box(box, mybox_inputs(box, 500))
        (br,) = ev.branches
        table = _store_table(box, br.store, br.fired)
        assert "$_" not in table and "$$_" not in table
        anon_bound = [v for v, _ in br.store.items() if v.anonymous]
        assert anon_bound  # the guards each bound one black hole

    def test_anonymous_variable_keeps_branches_apart(self):
        # The two solutions of {a} \/ $_ ~ {a, $z} differ in what $_ holds:
        # {} with $z = a, or {$z}.  Neither is an instance of the other.
        box = parse_box("box X ((i) -> (q)): => $q :=: {a} \\/ $_; => $q :=: {a, $z};")
        ev = evaluate_box(box)
        q, z = box.object_vars["q"], local(box, "z")
        assert [(resolve(q, br.store), resolve(z, br.store)) for br in ev.branches] == [
            (term("{a}"), Sym("a")), (SetTerm([Sym("a"), z]), z)]

    def test_branches_saying_the_same_are_merged(self):
        # Binding $s forks the first clause's branches into 8, which say
        # only 4 different things about $s and $t.
        box = parse_box("box X ((i) -> (q)): => {a} \\/ $s :=: {a, b} \\/ $t; => $s :=: {a, b};")
        ev = evaluate_box(box)
        assert len(ev.branches) == 4
        s, t = local(box, "s"), local(box, "t")
        assert all(resolve(s, br.store) == term("{a, b}") for br in ev.branches)
        assert {resolve(t, br.store) for br in ev.branches} == {
            term("{}"), term("{a}"), term("{b}"), term("{a, b}")}


def box_evaluations(monkeypatch, tmp_path, cal, expr, env=""):
    """Aggregate the network ``expr`` over the boxes of ``cal``: the
    evaluation, and the declaration and input store of every box
    evaluation made on the way."""
    calls = []

    def record(decl, inputs):
        calls.append((decl, inputs))
        return evaluate_box(decl, inputs)

    monkeypatch.setattr(aggregate, "evaluate_box", record)
    (tmp_path / "lib.cal").write_text(cal)
    (net,) = aggregate.parse_network_file(f"use lib.cal\nnet m = {expr}\n", tmp_path)
    store = aggregate.network_input_store(net, aggregate.parse_env_file(env))
    return aggregate.aggregate_functional(net, store), calls


def reference_conjoin(preds, store, frozen, failures):
    """The stores under which every predicate holds, every fork kept: each
    predicate is conjoined over every store so far, with ``unify`` when it
    is a ``:=:`` or a ``=`` with a written set on its right, else with
    ``eval_relation``.  Each discarded store appends to ``failures`` what
    says which failure it was, the predicate's index and the store's full
    key, and its message."""
    stores = [store]
    for i, p in enumerate(preds):
        nxt = []
        for s in stores:
            if p.op == ":=:" or (p.op == "=" and classify(p.rhs) == SET):
                got = unify(p.lhs, p.rhs, s, frozen)
                nxt += got
                message = None if got else f"assertion cannot hold: {p}"
            else:
                out = eval_relation(p.lhs, p.op, p.rhs, s, frozen)
                message = (f"assertion failed ({out}): {p}" if isinstance(out, PredicateFailure)
                           else None if out[0] else f"assertion does not hold: {p}")
                if message is None:
                    nxt.append(out[1])
            if message is not None:
                failures.append(((i, branch_snapshot(s)), message))
        stores = nxt
    return stores


def reference_fire(clause, store, frozen):
    """A clause fired without merging inside it: whether its condition
    held, the stores of its assertions and their failure messages.  A
    failure repeated by stores that say the same, after a condition store
    that says the same, is one failure."""
    failures = []
    cond = reference_conjoin(clause.conditions, store, frozen, [])
    stores = []
    for c in cond:
        found = []
        stores += reference_conjoin(clause.assertions, c, frozenset(), found)
        failures += [((branch_snapshot(c), key), message) for key, message in found]
    return bool(cond), stores, [message for _, message in dict.fromkeys(failures)]


def reference_evaluate_box(decl, store):
    """:func:`evaluate_box` as it stood with one merge only, at the end of
    each clause, except that a failure is reported once: the branches and
    the diagnostics.  Every clause solves all its conditions, each copy of
    a guard that already held included, so this is also the oracle for
    leaving those copies out."""
    frozen = frozenset(decl.input_vars)
    branches, diagnostics = [Branch(store, ())], []
    for idx, clause in enumerate(decl.clauses):
        nxt, fired = [], False
        for br in branches:
            held, stores, failures = reference_fire(clause, br.store, frozen)
            diagnostics += [f"warning ({clause.pos}): clause {idx + 1}: {m}" for m in failures]
            fired |= held
            nxt += [Branch(s, br.fired + (idx,)) for s in stores] if held else [br]
        if not fired:
            diagnostics.append(f"note ({clause.pos}): clause {idx + 1}: condition not satisfied")
        branches = merge_branches([(store, nxt)], decl.variables)
    if not branches:
        diagnostics.append(f"warning ({decl.pos}): box {decl.name}: no consistent evaluation branch")
    return branches, diagnostics


def merges_as_the_reference(decl, store):
    """Assert that :func:`evaluate_box`, which merges after each predicate,
    gives the reference's branches and diagnostics."""
    ev = evaluate_box(decl, store)
    branches, diagnostics = reference_evaluate_box(decl, store)
    assert [branch_snapshot(br.store) for br in ev.branches] == \
        [branch_snapshot(br.store) for br in branches]
    assert [br.fired for br in ev.branches] == [br.fired for br in branches]
    assert list(map(str, ev.diagnostics)) == diagnostics


def merge_is_exact(decl, store):
    """Assert that evaluating a one-clause box keeps the branches with
    distinct full keys, first ones first; return whether each branch bound
    only the box's variables and new ones, so that the local key applied."""
    (clause,) = decl.clauses
    stores = reference_fire(clause, store, frozenset(decl.input_vars))[1]
    assert len(stores) > 1
    assert [branch_snapshot(br.store) for br in evaluate_box(decl, store).branches] == \
        list(dict.fromkeys(branch_snapshot(s) for s in stores))
    return all(v in decl.variables or store.newer(v) for s in stores for v in s.since(store))


def recorded_merges(monkeypatch, tmp_path, cal, expr, env=""):
    """Aggregate as :func:`box_evaluations` does; return, for the merges of
    box branches and of network branches, each call's branches and result."""
    merges = {"box": [], "network": []}

    def recorder(level):
        def record(groups, own):
            out = merge_branches(groups, own)
            merges[level].append(([br for _, branches in groups for br in branches], out))
            return out
        return record

    monkeypatch.setattr(clauses, "merge_branches", recorder("box"))
    monkeypatch.setattr(aggregate, "merge_branches", recorder("network"))
    box_evaluations(monkeypatch, tmp_path, cal, expr, env)
    return merges


def keeps_the_distinct_full_keys(branches, out):
    """Whether a merge kept the first branch of each distinct full key, in
    order."""
    first = {}
    for br in branches:
        first.setdefault(branch_snapshot(br.store), br)
    return [id(br) for br in out] == [id(br) for br in first.values()]


RELAY = "box {} ((x) -> (y)): $x :=: {{value($v)}} \\/ $_ => $y :=: {{value($v), Type(int)}};\n"
REMAINDER = "box {} ((x) -> (y)): $x :=: {{value($v)}} \\/ $r => $y :=: {{value($v)}} \\/ $r;\n"
SPLIT_AB = "box A ((x) -> (y)): => {a} \\/ $r :=: {a, b} \\/ $s, $y :=: {a} \\/ $r;\n"
SPLIT_A = "box A ((x) -> (y)): => {a} \\/ $r :=: {a} \\/ $s, $y :=: {a} \\/ $r;\n"
# Boxes A .. B whose network-level merge drops branches, each with the
# branch count of A .. B; without that merge the counts are 12, 6 and 9.
NETWORK_MERGES = {
    "pass-ab": (SPLIT_AB + "box B ((x) -> (y)): $x :=: {a, b} => $y :=: $x;\n", 8),
    "pass-a": (SPLIT_A + "box B ((x) -> (y)): $x :=: {a} => $y :=: $x;\n", 4),
    "take-rest": (SPLIT_A + "box B ((x) -> (y)): $x :=: {a} \\/ $q => $y :=: $q;\n", 7),
}
# Networks for recorded_merges: a .cal text, a network and an env file.
NETWORKS = {
    **{name: (cal, "A .. B", "") for name, (cal, _) in NETWORK_MERGES.items()},
    "relay": ("".join(RELAY.format(f"R{i}") for i in range(3)), "R0 .. R1 .. R2",
              "R0.$x = {value(7), Type(int), tag(1)}\n"),
    "remainder": ("".join(REMAINDER.format(f"R{i}") for i in range(2)), "R0 .. R1",
                  "R0.$x = {value(7), Type(int), tag(1)}\n"),
    "upstream-r": ("box A ((x) -> (y)): => $y :=: {a} \\/ $r;\n"
                   "box B ((x) -> (y)): $x :=: {a} \\/ $q => $y :=: $q;\n", "A .. B", ""),
    "shared-w": ("box B ((x) -> (y)): $x :=: {a} \\/ $r => $y :=: $r;\n"
                 "box C ((x) -> (y)): => $y :=: $x;\n", "B | C",
                 "B.$x = {a, b} \\/ $w\nC.$x = {c} \\/ $w\n"),
}


class TestBranchMergeKey:
    """A box merges its branches on its own variables' values unless it
    binds a variable from outside; either way it merges exactly as the
    full key, :func:`branch_snapshot`, does."""

    def test_since_lists_the_bindings_after_an_ancestor(self):
        a, b, c = (Var(("t", i), name, LOCAL) for i, name in enumerate("abc"))
        base = BindingStore().bind(a, Num(Fraction(1)))
        g, store = base.fresh_union_var()
        store = store.bind(c, SetTerm((), (g,))).bind(b, Num(Fraction(2)))
        assert store.since(base) == [c, b]
        assert store.since(BindingStore()) == [a, c, b]
        assert base.since(base) == []
        assert base.newer(g) and not store.newer(g) and not base.newer(a)

    def test_local_key_keeps_the_identity_of_older_variables(self):
        # $r shows in $w, bound before the box ran; a box branch that holds
        # $r in $y says something else than one that holds a new variable.
        box = parse_box("box B ((x) -> (y)): => $y :=: $x;")
        y = box.object_vars["y"]
        w, r = Var(("t", 0), "w", LOCAL), Var(("t", 1), "r", LOCAL)
        base = BindingStore().bind(w, SetTerm([Sym("a")], [r]))
        g, fresh = base.fresh_union_var()
        branches = [Branch(base.bind(y, SetTerm([Sym("a")], [r])), (0,)),
                    Branch(fresh.bind(y, SetTerm([Sym("a")], [g])), (0,))]
        # Both branches bind only $y: the local key applies.
        assert all(v in box.variables or base.newer(v)
                   for br in branches for v in br.store.since(base))
        assert merge_branches([(base, branches)], box.variables) == branches
        assert len({branch_snapshot(br.store) for br in branches}) == 2

    @pytest.mark.parametrize("box, boxes, branches", [(RELAY, 3, 1), (REMAINDER, 2, 4)],
                             ids=["relay", "remainder"])
    def test_boxes_that_bind_their_own_variables_merge_on_the_local_key(
            self, monkeypatch, tmp_path, box, boxes, branches):
        names = [f"R{i}" for i in range(boxes)]
        ev, calls = box_evaluations(
            monkeypatch, tmp_path, "".join(box.format(n) for n in names), " .. ".join(names),
            "R0.$x = {value(7), Type(int), tag(1)}\n")
        assert len(ev.branches) == branches
        if box is RELAY:
            # What the relay's $_ holds shows nowhere, so its guard has one
            # unifier: every evaluation yields one store, before any merge.
            for decl, store in calls:
                (clause,) = decl.clauses
                assert len(reference_fire(clause, store, frozenset(decl.input_vars))[1]) == 1
                assert len(evaluate_box(decl, store).branches) == 1
        else:
            assert all(merge_is_exact(decl, store) for decl, store in calls)

    def test_binding_an_upstream_variable_falls_back_to_the_full_key(self, monkeypatch, tmp_path):
        # B binds A's $r in some branches; branches 1 and 3 then print the
        # same tables, and differ only in whether $r was bound.
        ev, calls = box_evaluations(monkeypatch, tmp_path, *NETWORKS["upstream-r"])
        assert len(ev.branches) == 3
        (b, store) = calls[1]
        assert not merge_is_exact(b, store)

    def test_binding_an_env_file_variable_falls_back_to_the_full_key(self, monkeypatch, tmp_path):
        # The boxes of test_env_variable_shared_by_two_boxes_keeps_branches_apart.
        ev, calls = box_evaluations(monkeypatch, tmp_path, *NETWORKS["shared-w"])
        assert len(ev.branches) == 3
        assert not merge_is_exact(*calls[0])

    @pytest.mark.parametrize("name", NETWORK_MERGES)
    def test_network_merges_the_branches_of_one_parent(self, monkeypatch, tmp_path, name):
        # B binds A's $r, so B's branches of two different A branches can
        # say the same; the network-level merge keeps one of them.
        cal, merged = NETWORK_MERGES[name]
        ev, _ = box_evaluations(monkeypatch, tmp_path, cal, "A .. B")
        assert len(ev.branches) == merged

    @pytest.mark.parametrize("name", NETWORKS)
    def test_every_merge_keeps_the_distinct_full_keys(self, monkeypatch, tmp_path, name):
        merges = recorded_merges(monkeypatch, tmp_path, *NETWORKS[name])
        assert merges["network"]
        assert all(keeps_the_distinct_full_keys(*m) for m in merges["box"] + merges["network"])


def guards_inputs(box, fixtures_dir):
    """The input store that ``guards.env`` gives ``box``."""
    env = aggregate.parse_env_file((fixtures_dir / "guards.env").read_text())
    return instance_input_store(box, (box.name,), env)


# Boxes of TestEvaluateBox, each with the values of its input fields.
EVALUATE_BOX_CASES = {
    "order-ab": ("box b ((x) -> (y,z)):\n  $x > 0 => $y :=: {high};\n  $x > 1 => $z :=: {wide};",
                 {"x": "5"}),
    "order-ba": ("box b ((x) -> (y,z)):\n  $x > 1 => $z :=: {wide};\n  $x > 0 => $y :=: {high};",
                 {"x": "5"}),
    "anonymous": ("box X ((i) -> (q)): => $q :=: {a} \\/ $_; => $q :=: {a, $z};", {}),
    "same-say": ("box X ((i) -> (q)): => {a} \\/ $s :=: {a, b} \\/ $t; => $s :=: {a, b};", {}),
    "two-solutions": ("box b ((x) -> (y)): $x :=: {$e, $f} => $e > 1, $f > 1;", {"x": "{1, 3}"}),
}


class TestMergeAfterEachPredicate:
    """A clause merges its stores after each predicate that forks them;
    a box then evaluates as one that merges only after each clause."""

    @pytest.mark.parametrize("k_value", [500, 100, None])
    def test_mybox(self, mybox_source, k_value):
        box = parse_box(mybox_source)
        merges_as_the_reference(box, mybox_inputs(box, k_value) if k_value else BindingStore())

    @pytest.mark.parametrize("name", ["Warn", "Pair", "Pick", "Guarded"])
    def test_guards_fixture(self, fixtures_dir, name):
        (box,) = [flatten_provided(d) for d in
                  syntax.parse_program((fixtures_dir / "guards.cal").read_text())
                  if d.header.name == name]
        merges_as_the_reference(box, guards_inputs(box, fixtures_dir))

    @pytest.mark.parametrize("name", EVALUATE_BOX_CASES)
    def test_evaluate_box_cases(self, name):
        source, values = EVALUATE_BOX_CASES[name]
        merges_as_the_reference(*box_with_inputs(source, **values))

    @pytest.mark.parametrize("name", NETWORKS)
    def test_network_boxes(self, monkeypatch, tmp_path, name):
        _, calls = box_evaluations(monkeypatch, tmp_path, *NETWORKS[name])
        assert calls
        for decl, store in calls:
            merges_as_the_reference(decl, store)

    def test_mybox_runs_2_set_unifications(self, mybox_source):
        # Clause 1 runs the two guards once: neither forks on what its $_
        # holds.  Clauses 2 to 4 inherit the same two guards, which held
        # when clause 1 fired, so they run neither.
        box = parse_box(mybox_source)
        store = mybox_inputs(box, 500)
        assert set_unifications(evaluate_box, box, store)[0] == 2

    def test_failing_assertion_behind_a_forking_guard_warns_once(self):
        # The guard has one solution, whatever $_ holds, so the failing
        # assertion runs, and warns, once.
        box = parse_box("box X ((x) -> (y)): $x :=: {a} \\/ $_ => $y = 1, $y = 2;")
        ev = evaluate_box(box, BindingStore().bind(box.object_vars["x"], term("{a, b, c}")))
        assert ev.branches == []
        assert [d.message for d in ev.diagnostics] == [
            "clause 1: assertion does not hold: $y = 2", "box X: no consistent evaluation branch"]


def set_unifications(fn, *args):
    """How many times ``fn(*args)`` calls ``unify_sets``, and its result."""
    calls = 0
    real = unify_module.unify_sets

    def counting(*a, **kw):
        nonlocal calls
        calls += 1
        return real(*a, **kw)

    with patch.object(unify_module, "unify_sets", counting):
        out = fn(*args)
    return calls, out


def conditions_run(monkeypatch, box, store):
    """Evaluate ``box``; return the conditions that each clause ran in
    each branch, in order."""
    ran = []

    def record(clause, *args):
        ran.append([str(p) for p in clause.conditions])
        return fire_clause(clause, *args)

    monkeypatch.setattr(clauses, "fire_clause", record)
    evaluate_box(box, store)
    return ran


def box_with_inputs(source, **values):
    """The box of ``source`` and a store binding its input fields to the
    terms written in ``values``."""
    box = parse_box(source)
    store = BindingStore()
    for name, value in values.items():
        store = store.bind(box.object_vars[name], term(value))
    return box, store


GUARD_X = "$x :=: {a} \\/ $_"
GUARD_W = "$w :=: {b} \\/ $_"


class TestHeldGuardsAreNotSolvedAgain:
    """A clause leaves out its copy of a guard that a clause the branch
    fired also inherited: that guard held, and the branch's store only
    grows.  Each count is below what solving every copy makes."""

    def test_a_guard_is_solved_again_after_a_clause_whose_own_condition_failed(self, monkeypatch):
        box, store = box_with_inputs(
            "box B ((x) -> (y, z)):\n"
            f"provided {GUARD_X} use\n"
            "  $x :=: {c} \\/ $_ => $y = 1;\n"  # x holds no c: clause 1 does not fire
            "  => $y = 2;\n"
            "  => $z = 3;\n"
            "end;", x="{a, b}")
        assert conditions_run(monkeypatch, box, store) == [
            [GUARD_X, "$x :=: {c} \\/ $_"], [GUARD_X], []]
        ev = evaluate_box(box, store)
        assert [br.fired for br in ev.branches] == [(1, 2)]
        assert set_unifications(evaluate_box, box, store)[0] == 3  # solving every copy makes 4

    def test_two_blocks_with_the_same_written_guard_do_not_share_it(self, monkeypatch):
        box, store = box_with_inputs(
            "box B ((x) -> (y, z)):\n"
            f"provided {GUARD_X} use => $y = 1; end;\n"
            f"provided {GUARD_X} use => $z = 2; => $z = 2; end;", x="{a, b}")
        assert [c.guards for c in box.clauses] == [(0,), (1,), (1,)]
        assert conditions_run(monkeypatch, box, store) == [
            [GUARD_X], [GUARD_X], []]
        assert set_unifications(evaluate_box, box, store)[0] == 2  # solving every copy makes 3

    def test_nested_blocks_skip_exactly_the_guards_of_blocks_that_fired(self, monkeypatch):
        # Clause 1 does not fire, so clause 2 solves both guards; clause 3
        # is in the outer block only, whose guard held in clause 2; clause
        # 4's inner block has a guard of its own, which nothing solved yet.
        box, store = box_with_inputs(
            "box B ((x, w) -> (y, z)):\n"
            f"provided {GUARD_X} use\n"
            f"  provided {GUARD_W} use\n"
            "    $w :=: {c} \\/ $_ => $y = 1;\n"
            "    => $y = 2;\n"
            "  end;\n"
            "  => $z = 3;\n"
            f"  provided {GUARD_W} use\n"
            "    => $z = 3;\n"
            "  end;\n"
            "end;", x="{a}", w="{b}")
        assert [c.guards for c in box.clauses] == [(0, 1), (0, 1), (0,), (0, 2)]
        assert conditions_run(monkeypatch, box, store) == [
            [GUARD_X, GUARD_W, "$w :=: {c} \\/ $_"],
            [GUARD_X, GUARD_W],
            [],
            [GUARD_W]]
        ev = evaluate_box(box, store)
        assert [br.fired for br in ev.branches] == [(1, 2, 3)]
        assert set_unifications(evaluate_box, box, store)[0] == 6  # solving every copy makes 8

    def test_every_network_instance_skips_its_held_guards(self, monkeypatch, tmp_path):
        # Each instance evaluates a clone of its box, which keeps the guard
        # numbers: one set unification per instance for the guard, and one
        # for the second clause's assertion against the first's $y.
        box = ("box {} ((x) -> (y)):\n"
               "provided $x :=: {{value($v)}} \\/ $_ use\n"
               "  => $y :=: {{value($v), Type(int)}};\n"
               "  => $y :=: {{Type(int), value($v)}};\n"
               "end;\n")
        counts = []

        def record(decl, inputs):
            calls, ev = set_unifications(evaluate_box, decl, inputs)
            counts.append(calls)
            return ev

        monkeypatch.setattr(aggregate, "evaluate_box", record)
        (tmp_path / "lib.cal").write_text("".join(box.format(f"P{i}") for i in range(3)))
        (net,) = aggregate.parse_network_file("use lib.cal\nnet m = P0 .. P1 .. P2\n", tmp_path)
        store = aggregate.network_input_store(
            net, aggregate.parse_env_file("P0.$x = {value(7), tag(1)}\n"))
        ev = aggregate.aggregate_functional(net, store)
        assert [br.fired for br in ev.branches] == [{"P0": (0, 1), "P1": (0, 1), "P2": (0, 1)}]
        assert counts == [2, 2, 2]  # solving every copy makes 3 each


# Atoms and shared named variables of the generated boxes' set equations.
ATOMS = ["1", "2", "a"]
ELEMENTS = ATOMS + ["$e", "$f", "$_"]
UNIONS = ["", " \\/ $_", " \\/ $r", " \\/ $s"]


@st.composite
def provided_boxes(draw):
    """A box over inputs ``x`` and ``w`` whose clauses sit in provided
    blocks nested up to two deep, and ground sets for its inputs.  Guards
    and own conditions are set equations with named elements, ``$_`` and
    named remainders, or relations; any of them may fail."""
    def set_equation(subject):
        elements = draw(st.lists(st.sampled_from(ELEMENTS), max_size=2))
        return f"{subject} :=: {{{', '.join(elements)}}}{draw(st.sampled_from(UNIONS))}"

    def condition():
        if draw(st.integers(0, 3)) == 0:
            return f"{draw(st.sampled_from(['$e', '$f']))} {draw(st.sampled_from(['>', '<=']))} 1"
        return set_equation(draw(st.sampled_from(["$x", "$w", "$r"])))

    def assertion():
        return draw(st.sampled_from([
            set_equation("$y"), "$y :=: $r", "$z = $e + 1", "$z :=: {$f} \\/ $s"]))

    def items(depth, block_first=False):
        out = []
        for i in range(draw(st.integers(1, 3))):
            if block_first and i == 0 or depth < 2 and draw(st.booleans()):
                guards = ", ".join(condition() for _ in range(draw(st.integers(1, 2))))
                out.append(f"provided {guards} use\n{items(depth + 1)}end;\n")
            else:
                own = ", ".join(condition() for _ in range(draw(st.integers(0, 1))))
                asserts = ", ".join(assertion() for _ in range(draw(st.integers(1, 2))))
                out.append(f"{own} => {asserts};\n")
        return "".join(out)

    source = f"box B ((x, w) -> (y, z)):\n{items(0, block_first=True)}"
    values = {name: "{" + ", ".join(draw(st.lists(st.sampled_from(ATOMS), max_size=3))) + "}"
              for name in ("x", "w")}
    return source, values


@settings(max_examples=150, deadline=None)
@given(provided_boxes())
def test_leaving_out_held_guards_merges_as_the_reference(case):
    source, values = case
    box, store = box_with_inputs(source, **values)
    merges_as_the_reference(box, store)
    assert set_unifications(evaluate_box, box, store)[0] <= \
        set_unifications(reference_evaluate_box, box, store)[0]


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

        s = BindingStore().bind(box.object_vars["x"], term("(1, 2, 3)"))
        ev = evaluate_box(box, s)
        (br,) = ev.branches
        bound_anons = [v for v, _ in br.store.items() if v.anonymous]
        assert len(bound_anons) == 3
        table = _store_table(box, br.store, br.fired)
        assert "$_" not in table and "$$_" not in table
