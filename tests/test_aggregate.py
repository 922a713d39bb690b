"""Network aggregation tests.

The two-box propagation expectations were hand-executed; interval
message-count expectations are checked against exhaustive enumeration of
the integer products inside the bounds.
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from calang import syntax
from calang.aggregate import (
    COMM_COST,
    Instance,
    Network,
    NetworkError,
    Parallel,
    Serial,
    aggregate_extrafunctional,
    aggregate_functional,
    box_latency_model,
    build_connections,
    check_declaration,
    check_vocabulary,
    clone_declaration,
    leaves,
    load_boxes,
    multiply_counts,
    network_input_store,
    parse_env_file,
    parse_network_file,
    shape_dims,
)
from calang.clauses import parse_box
from calang.terms import Num, SetTerm, Sym, Tup, VarSupply, desugar, term_text
from calang.unify import BindingStore, resolve

A_SRC = """
box A ((x) -> (y)):
  $x :=: {value($n)} \\/ $_
    => $y :=: {Type(int), value(8)},
       $$T0 :=: $n * log($n),
       $$M0 :=: limits(5,15);
"""

B_SRC = """
box B ((p) -> (q)):
  $p :=: {value($v)} \\/ $_
    => $q :=: {value($v), doubled},
       $$T0 :=: 1,
       $$M0 :=: 2;
"""


def term(text):
    return desugar(syntax.parse_term(text))


def make_net(*sources, expr=None):
    supply = VarSupply("i")
    library = {}
    for src in sources:
        box = parse_box(src)
        library[box.name] = box
    insts = {name: Instance(name, clone_declaration(decl, supply))
             for name, decl in library.items()}
    return insts, supply


def serial_net(name="main"):
    insts, _ = make_net(A_SRC, B_SRC)
    return Network(name, Serial([insts["A"], insts["B"]], [None])), insts


class TestConnections:
    def test_single_pair(self):
        net, insts = serial_net()
        (conn,) = build_connections(net)
        assert conn.upstream.name == "A" and conn.downstream.name == "B"
        (pair,) = conn.pairs
        assert pair[0] == insts["A"].decl.object_vars["y"]
        assert pair[1] == insts["B"].decl.object_vars["p"]

    def test_positional_pairs(self):
        insts, _ = make_net(
            "box A ((x) -> (y,z)):",
            "box B ((p,r) -> (q)):")
        net = Network("m", Serial([insts["A"], insts["B"]], [None]))
        (conn,) = build_connections(net)
        names = [(u.name, d.name) for u, d in conn.pairs]
        assert names == [("y", "p"), ("z", "r")]

    def test_arity_mismatch_names_both_boxes(self):
        insts, _ = make_net(
            "box A ((x) -> (y)):",
            "box B ((p,r) -> (q)):")
        net = Network("m", Serial([insts["A"], insts["B"]], [None]))
        with pytest.raises(NetworkError) as e:
            build_connections(net)
        assert "A" in str(e.value) and "B" in str(e.value)

    def test_upstream_without_output_type_is_error(self):
        insts, _ = make_net(
            "box A ((x) -> ):",
            "box B ((p) -> (q)):")
        net = Network("m", Serial([insts["A"], insts["B"]], [None]))
        with pytest.raises(NetworkError) as e:
            build_connections(net)
        assert str(e.value) == "box A has no output tuple type to connect"

    def test_leaves_and_ends(self, tmp_path):
        (tmp_path / "lib.cal").write_text(
            "".join(f"box {b} ((x) -> (y)):\n" for b in "ABCDEF"))
        (net,) = parse_network_file("use lib.cal\nnet m = A .. (B | C .. D) .. (E | F)\n",
                                    base_dir=tmp_path)

        def names(insts):
            return "".join(i.name for i in insts)

        middle = net.expr.stages[1]
        assert names(leaves(net.expr)) == names(net.instances()) == "ABCDEF"
        assert names(leaves(net.expr, 0)) == "A"
        assert names(leaves(net.expr, -1)) == "EF"
        assert names(leaves(middle)) == "BCD"
        assert names(leaves(middle, 0)) == "BC"
        assert names(leaves(middle, -1)) == "BD"
        assert [c.upstream.name + c.downstream.name for c in build_connections(net)] == \
            ["CD", "AB", "AC", "BE", "BF", "DE", "DF"]


class TestFunctionalAggregation:
    def test_value_flows_downstream(self):
        net, insts = serial_net()
        env = {("A", "$x"): term("{value(3), Type(int)}")}
        store = network_input_store(net, env)
        ev = aggregate_functional(net, store)
        assert len(ev.branches) == 1
        br = ev.branches[0]
        assert br.fired == {"A": (0,), "B": (0,)}
        q = resolve(insts["B"].decl.object_vars["q"], br.store)
        assert q == term("{value(8), doubled}")

    def test_missing_upstream_assertion_warns_and_unfires(self):
        insts, _ = make_net(
            "box A ((x) -> (y)):\n  $x :=: {value($n)} \\/ $_ => $$T0 :=: 1;",
            B_SRC)
        net = Network("m", Serial([insts["A"], insts["B"]], [None]))
        env = {("A", "$x"): term("{value(3)}")}
        ev = aggregate_functional(net, network_input_store(net, env))
        (br,) = ev.branches
        assert br.fired.get("B", ()) == ()
        assert any(d.severity == "warning" and "no association" in d.message
                   for d in ev.diagnostics)

    def test_conflicting_upstream_value_warns_and_keeps_the_input(self):
        # The environment fixes B's input and A asserts another value, so
        # the edge does not aggregate and B evaluates on its own input.
        insts, _ = make_net(
            "box A ((x) -> (y)): => $y :=: {value(8)};",
            "box B ((p) -> (q)): => $q :=: $p;")
        net = Network("m", Serial([insts["A"], insts["B"]], [None]))
        env = {("B", "$p"): term("{value(1)}")}
        ev = aggregate_functional(net, network_input_store(net, env))
        assert [(d.severity, d.message) for d in ev.diagnostics] == [
            ("warning", "A..B: constraint on B.p does not aggregate; leaving it unconstrained")]
        (br,) = ev.branches
        assert br.fired == {"A": (0,), "B": (0,)}
        assert resolve(insts["B"].decl.object_vars["q"], br.store) == term("{value(1)}")

    def test_single_box_network_matches_evaluate_box(self):
        from calang.clauses import evaluate_box

        insts, _ = make_net(A_SRC)
        net = Network("m", insts["A"])
        env = {("A", "$x"): term("{value(3)}")}
        ev = aggregate_functional(net, network_input_store(net, env))
        (br,) = ev.branches
        decl = insts["A"].decl
        direct = evaluate_box(decl, BindingStore().bind(decl.object_vars["x"], term("{value(3)}")))
        assert [b.fired for b in direct.branches] == [br.fired["A"]]
        y_net = resolve(decl.object_vars["y"], br.store)
        y_direct = resolve(decl.object_vars["y"], direct.branches[0].store)
        assert y_net == y_direct


class TestExtrafunctional:
    def test_serial_latency_shape(self):
        # T = T_left + (comm_cost + T_right), stated rule
        left = [(term("$N * log($N)"), Num(Fraction(1)))]
        right = [(Num(Fraction(1)), Num(Fraction(1)))]
        from calang.aggregate import _serial_rule

        ((latency, _),) = _serial_rule(left, right, COMM_COST, fan_out=False)
        assert term_text(latency) == "$N * log($N) + (comm_cost + 1)"

    def test_interval_product_matches_enumeration(self):
        cases = [(term("limits(5,15)"), term("2")),
                 (term("limits(2,3)"), term("limits(4,5)")),
                 (term("7"), term("3"))]
        for a, b in cases:
            got = multiply_counts(a, b)

            def bounds(t):
                if isinstance(t, Num):
                    return int(t.value), int(t.value)
                return int(t.members[1].value), int(t.members[2].value)

            alo, ahi = bounds(a)
            blo, bhi = bounds(b)
            products = [i * j for i in range(alo, ahi + 1) for j in range(blo, bhi + 1)]
            glo, ghi = bounds(got)
            assert glo == min(products) and ghi == max(products)
            assert all(glo <= p <= ghi for p in products)

    def test_limits_times_integer(self):
        got = multiply_counts(term("limits(5,15)"), term("2"))
        assert got == term("limits(10,30)")

    def test_unknown_and_unbounded(self):
        assert multiply_counts(term("unknown"), term("2")) == Sym("unknown")
        assert multiply_counts(term("unbounded"), term("2")) == Sym("unbounded")
        assert multiply_counts(term("unbounded"), term("0")) == Num(Fraction(0))
        assert multiply_counts(term("Poisson(1)"), term("2")) == Sym("unknown")
        # a product too long to write out
        assert multiply_counts(term("9" * 3000), term("9" * 3000)) == Sym("unknown")

    def test_poisson_carried_symbolically(self):
        left = [(term("Poisson(unknown)"), Num(Fraction(1)))]
        right = [(Num(Fraction(2)), Num(Fraction(1)))]
        from calang.aggregate import _serial_rule

        ((latency, _),) = _serial_rule(left, right, COMM_COST, fan_out=False)
        assert "Poisson(unknown)" in term_text(latency)

    def test_parallel_pass_through(self):
        m1 = [(Sym("t1"), Num(Fraction(1)))]
        m2 = [(Sym("t2"), Num(Fraction(2))), (Sym("t3"), Num(Fraction(3)))]
        from calang.aggregate import _parallel_rule

        model = _parallel_rule([m1, m2])
        assert [latency for latency, _ in model] == [Sym("t1"), Sym("t2"), Sym("t3")]
        assert model[2][1] == Num(Fraction(3))

    def test_serial_associativity_modulo_plus(self):
        insts, _ = make_net(A_SRC, B_SRC, "box C ((r) -> (s)): => $$T0 :=: 5;")
        left_assoc = Serial([Serial([insts["A"], insts["B"]], [None]), insts["C"]], [None])
        insts2, _ = make_net(A_SRC, B_SRC, "box C ((r) -> (s)): => $$T0 :=: 5;")
        right_assoc = Serial([insts2["A"], Serial([insts2["B"], insts2["C"]], [None])], [None])

        def t_of(expr, insts_map):
            net = Network("m", expr)
            env = {("A", "$x"): term("{value(3)}")}
            ev = aggregate_functional(net, network_input_store(net, env))
            costs = aggregate_extrafunctional(expr, ev.branches[0].store)
            return costs[0][0]

        def flatten_plus(t):
            if isinstance(t, Tup) and t.head == Sym("\\plus"):
                out = []
                for m in t.members[1:]:
                    out.extend(flatten_plus(m))
                return out
            return [t]

        ta = flatten_plus(t_of(left_assoc, insts))
        tb = flatten_plus(t_of(right_assoc, insts2))
        assert [term_text(t) for t in ta] == [term_text(t) for t in tb]

    def test_box_model_defaults(self):
        insts, _ = make_net("box A ((x) -> (y), (z)): => $$T0 :=: 1;")
        model = box_latency_model(insts["A"], BindingStore())
        assert model == [(Sym("unknown"), Sym("unbounded"))] * 2


class TestVocabulary:
    def test_int_list_self_reference_ok(self):
        t = term("Type(int_list, union(record((head,int), tail(int_list)), nil))")
        assert check_vocabulary(t) == []

    def test_shape_extracts_dims(self):
        t = term("shape(7,(7,nil))")
        assert check_vocabulary(t) == []
        assert [term_text(x) for x in shape_dims(t)] == ["7", "7"]

    def test_unterminated_shape_flagged(self):
        issues = check_vocabulary(term("shape(7,7)"))
        assert issues and "shape" in issues[0]

    def test_declaration_check_names_the_clause_of_a_vocabulary_issue(self):
        box = parse_box("box b ((x) -> (y)): => $y :=: {shape(7,7)};")
        assert [(d.severity, d.message) for d in check_declaration(box)] == [
            ("warning", "b clause 1: unterminated shape list: shape(7, 7)")]

    def test_rank_wants_count(self):
        assert check_vocabulary(term("rank(2)")) == []
        assert check_vocabulary(term("rank(unknown)")) == []
        assert check_vocabulary(term("rank($r)")) == []
        assert check_vocabulary(term("rank(x, y)"))

    def test_limits_bounds(self):
        assert check_vocabulary(term("limits(5,15)")) == []
        assert check_vocabulary(term("limits(15,5)"))
        assert check_vocabulary(term("limits($lo,$hi)")) == []

    def test_channel_index_check(self):
        box = parse_box("box b ((x) -> (y)): => $$T3 :=: 1;")
        diags = check_declaration(box)
        assert any("T3" in d.message for d in diags)

    def test_ill_formed_set_reported_as_warning(self):
        box = parse_box("box b ((x) -> (y)): $x :=: {a, {b}} => $y = 1;")
        diags = check_declaration(box)
        assert any("ill-formed set" in d.message for d in diags)


class TestNetworkFiles:
    def test_parse_network_file(self, fixtures_dir):
        networks = parse_network_file((fixtures_dir / "pipeline.net").read_text(),
                                      base_dir=fixtures_dir)
        assert [n.name for n in networks] == ["main"]
        (net,) = networks
        assert isinstance(net.expr, Serial)
        assert [i.name for i in net.instances()] == ["A", "B"]

    def test_repeated_box_instances_distinct(self, fixtures_dir):
        (net,) = parse_network_file("use pipeline.cal\nnet m = A .. A\n",
                                    base_dir=fixtures_dir)
        names = [i.name for i in net.instances()]
        assert names == ["A", "A_2"]
        a1, a2 = net.instances()
        assert a1.decl.object_vars["y"] != a2.decl.object_vars["y"]

    def test_parallel_and_parens(self, fixtures_dir):
        (net,) = parse_network_file("use pipeline.cal\nnet m = A .. (B | B)\n",
                                    base_dir=fixtures_dir)
        assert isinstance(net.expr.stages[-1], Parallel)

    def test_edge_cost_override(self, fixtures_dir):
        (net,) = parse_network_file("use pipeline.cal\nnet m = A ..[net_hop] B\n",
                                    base_dir=fixtures_dir)
        assert net.expr.comms == [Sym("net_hop")]

    @pytest.mark.parametrize("line, where", [
        ("net = A", "line 2, column 5: expected 'network name', found '='"),
        ("net a b = B", "line 2, column 7: expected '=', found 'b'"),
    ])
    def test_network_name_is_one_identifier(self, fixtures_dir, line, where):
        with pytest.raises(syntax.CalSyntaxError) as e:
            parse_network_file(f"use pipeline.cal\n{line}\n", base_dir=fixtures_dir)
        assert str(e.value) == where

    def test_malformed_line_is_error(self, fixtures_dir):
        with pytest.raises(NetworkError) as e:
            parse_network_file("use pipeline.cal\nA .. B\n", base_dir=fixtures_dir)
        assert str(e.value) == "line 2: expected 'use <file.cal>' or 'net <name> = <boxexpr>'"

    def test_unknown_box_is_error(self, fixtures_dir):
        with pytest.raises(NetworkError):
            parse_network_file("net m = NOPE\n", base_dir=fixtures_dir)

    def test_env_file_forms(self):
        spec = parse_env_file(
            "-- environment\n"
            "$$nthreads = 4\n"
            "MYBOX.$a = {value(1)}\n"
            "MYBOX.$$T9 = unknown\n")
        assert spec[(None, "$$nthreads")] == Num(Fraction(4))
        assert ("MYBOX", "$a") in spec
        assert ("MYBOX", "$$T9") in spec

    def test_env_file_bad_line(self):
        with pytest.raises(NetworkError):
            parse_env_file("what is this\n")

    @pytest.mark.parametrize("target", ["$$", "$$a b", "$x", "A.b", "A.$_", "A.$$a.b",
                                        "box.$x", "1A.$x"])
    def test_env_file_target_must_read_back(self, target):
        # Only $$NAME, BOX.$NAME and BOX.$$NAME, with CAL identifiers for
        # BOX and NAME, name something that a report prints back.
        with pytest.raises(NetworkError) as e:
            parse_env_file(f"$$n = 1\n{target} = 3\n")
        assert str(e.value) == (f"env line 2: expected a '$$NAME', 'BOX.$NAME' or "
                                f"'BOX.$$NAME' target, found {target!r}")

    def test_syntax_error_wins_over_an_earlier_semantic_error(self, tmp_path):
        # A file is parsed whole before any of its boxes is flattened.
        path = tmp_path / "two.cal"
        path.write_text("box A ((a, a) -> (y)): => $y = 1;\n"
                        "box B ((x) -> (y)): => $y = ;\n")
        with pytest.raises(syntax.CalSyntaxError) as e:
            load_boxes(path)
        assert str(e.value) == f"{path}: line 2, column 29: expected a term, found ';'"

    def test_instance_names_skip_library_box_names(self, tmp_path):
        # The second A would be A_2, the name of another box.
        (tmp_path / "lib.cal").write_text(
            "box A ((x) -> (y)): => $y :=: {value(1)}, $$T0 = 1;\n"
            "box A_2 ((x) -> (y)): => $y :=: {value(2)}, $$T0 = 5;\n")
        (net,) = parse_network_file("use lib.cal\nnet m = A_2 .. A .. A\n", base_dir=tmp_path)
        insts = net.instances()
        assert [(i.name, i.decl.name) for i in insts] == [("A_2", "A_2"), ("A", "A"),
                                                          ("A_3", "A")]
        ev = aggregate_functional(net, network_input_store(net, {}))
        assert ev.diagnostics == []
        (br,) = ev.branches
        assert br.fired == {"A_2": (0,), "A": (0,), "A_3": (0,)}
        assert term_text(resolve(insts[0].decl.env_vars["T0"], br.store)) == "5"
        assert term_text(resolve(insts[2].decl.object_vars["x"], br.store)) == "{value(1)}"
