import contextlib
import json
import re
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

import calang.unify
from calang.cli import main
from calang.syntax import MAX_TERM_DEPTH


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# A signature naming one field twice: it parses, then flattening rejects it.
DUPLICATE_FIELD_BOX = "box X ((a,a) -> (b)): => $b :=: {};\n"


@pytest.fixture
def duplicate_field_cal(tmp_path):
    f = tmp_path / "dup.cal"
    f.write_text(DUPLICATE_FIELD_BOX)
    return f


MYBOX_ENV_500 = """\
$$nthreads = 4
MYBOX.$a = {Type(array, element(real), rank(2), shape(7,(7,nil))), packed(row_major)}
MYBOX.$k = {value(500), Type(int)}
"""


@pytest.fixture
def mybox_env(tmp_path, fixtures_dir):
    env = tmp_path / "mybox.env"
    env.write_text(MYBOX_ENV_500)
    return str(env)


class TestCheck:
    def test_mybox_is_clean(self, capsys, fixtures_dir):
        code, out = run(capsys, "check", str(fixtures_dir / "mybox.cal"))
        assert code == 0
        assert "status: ok" in out

    def test_ill_formed_set_warns_but_parses(self, capsys, tmp_path):
        f = tmp_path / "bad.cal"
        f.write_text("box b ((x) -> (y)): $x :=: {a, {b}} => $y = 1;")
        code, out = run(capsys, "check", str(f))
        assert code == 0
        assert "status: warnings" in out
        code, _ = run(capsys, "--strict", "check", str(f))
        assert code == 2

    def test_successive_calls_share_no_options(self, capsys, tmp_path):
        # One parser serves every call; the options of one call must not
        # leak into the next.
        f = tmp_path / "bad.cal"
        f.write_text("box b ((x) -> (y)): $x :=: {a, {b}} => $y = 1;")
        target = tmp_path / "report.json"
        code, out = run(capsys, "--strict", "--format", "json", "--out", str(target),
                        "check", str(f))
        assert (code, out) == (2, "")
        written = target.read_text()
        assert json.loads(written)["status"] == "warnings"
        code, out = run(capsys, "check", str(f))
        assert code == 0
        assert out.startswith("status: warnings\n")
        assert target.read_text() == written

    def test_unbalanced_parens_exit_1(self, capsys, tmp_path):
        f = tmp_path / "broken.cal"
        f.write_text("box b ((x -> (y)): => $y = 1;")
        code, out = run(capsys, "check", str(f))
        assert code == 1
        assert "status: errors" in out

    def test_semantic_error_is_reported(self, capsys, duplicate_field_cal):
        code, out = run(capsys, "check", str(duplicate_field_cal))
        assert code == 1
        assert "status: errors" in out
        assert (f"error: {duplicate_field_cal}: line 1, column 1: "
                "duplicate field name 'a' in signature") in out


class TestEval:
    def test_mybox_report(self, capsys, fixtures_dir, mybox_env):
        code, out = run(capsys, "eval", str(fixtures_dir / "mybox.cal"), "MYBOX",
                        "--env", mybox_env)
        assert code == 0
        assert "$$T0 = 7 * log(7) / 4" in out
        assert "$$T1 = 1" in out
        assert "rank(2)" in out

    def test_empty_env_no_assertions(self, capsys, fixtures_dir, tmp_path):
        env = tmp_path / "empty.env"
        env.write_text("")
        code, out = run(capsys, "eval", str(fixtures_dir / "mybox.cal"), "MYBOX",
                        "--env", str(env))
        assert code == 0
        assert "fired clauses = (none)" in out
        assert "$b" not in out

    def test_mybox_makes_few_unify_calls(self, capsys, fixtures_dir, mybox_env):
        # Its re-checked guards are ground, so set unification compares
        # their members and stops at the first solution: 120 calls before.
        original = calang.unify.unify
        counted = mock.Mock(wraps=original)
        with contextlib.ExitStack() as patches:
            for name, module in list(sys.modules.items()):
                if name.startswith("calang") and getattr(module, "unify", None) is original:
                    patches.enter_context(mock.patch.object(module, "unify", counted))
            code, out = run(capsys, "eval", str(fixtures_dir / "mybox.cal"), "MYBOX",
                            "--env", mybox_env)
        assert code == 0 and "$$T0 = 7 * log(7) / 4" in out
        assert counted.call_count <= 40

    def test_unknown_box_errors(self, capsys, fixtures_dir, mybox_env):
        code, out = run(capsys, "eval", str(fixtures_dir / "mybox.cal"), "NOPE",
                        "--env", mybox_env)
        assert code == 1

    def test_json_and_text_carry_same_information(self, capsys, fixtures_dir, mybox_env):
        _, text_out = run(capsys, "eval", str(fixtures_dir / "mybox.cal"), "MYBOX",
                          "--env", mybox_env)
        _, json_out = run(capsys, "--format", "json", "eval",
                          str(fixtures_dir / "mybox.cal"), "MYBOX", "--env", mybox_env)
        data = json.loads(json_out)
        (section,) = data["sections"]
        (branch,) = section["branches"]
        for key, value in branch.items():
            assert f"{key} = {value}" in text_out
        assert data["status"] in text_out

    def test_identical_sets_hold_for_an_unbound_input(self, capsys, tmp_path):
        f = tmp_path / "x.cal"
        f.write_text("box X ((x) -> (y)): {} \\/ $x :=: {} \\/ $x => $y = 1;\n")
        code, out = run(capsys, "eval", str(f), "X")
        assert code == 0
        assert "status: ok" in out
        assert "  fired clauses = 1\n  $y = 1\n" in out

    def test_set_that_check_calls_ill_formed_does_not_hold(self, capsys, tmp_path):
        f = tmp_path / "y.cal"
        f.write_text("box Y (() -> (y)): => $y :=: {f({a, {b}})};\n")
        _, out = run(capsys, "check", str(f))
        assert "ill-formed set (set member is itself a set: {b})" in out
        code, out = run(capsys, "eval", str(f), "Y")
        assert code == 0
        assert "status: warnings" in out
        assert "clause 1: assertion cannot hold: $y :=: {f({a, {b}})}" in out
        assert "box Y: no consistent evaluation branch" in out
        assert "$y =" not in out

    def test_semantic_error_is_reported(self, capsys, duplicate_field_cal):
        code, out = run(capsys, "eval", str(duplicate_field_cal), "X")
        assert code == 1
        assert "duplicate field name 'a' in signature" in out


class TestHorn:
    def test_deterministic_output(self, capsys, fixtures_dir):
        _, out1 = run(capsys, "horn", str(fixtures_dir / "mybox.cal"))
        _, out2 = run(capsys, "horn", str(fixtures_dir / "mybox.cal"))
        assert out1 == out2
        clause_lines = [l for l in out1.splitlines() if l and not l.startswith("%")]
        assert len(clause_lines) == 8

    def test_mybox_set_binding_exports_as_an_equivalence(self, capsys, fixtures_dir):
        # Clause 2's $d = $base \/ {rank(3)} binds $d by unification, so
        # it exports as eq, like a :=:, and not as the numeric num_eq.
        _, out = run(capsys, "horn", str(fixtures_dir / "mybox.cal"))
        clause_2 = out.split("% MYBOX clause 2 ")[1].split("% MYBOX clause 3 ")[0]
        assert re.search(r"^eq\(D_2_\d+, union\(set\(\[rank\(3\)\]\), Base_2_\d+\)\) :- ",
                         clause_2, re.M)
        assert "num_eq" not in clause_2

    def test_two_files_concatenate_in_order(self, capsys, fixtures_dir, tmp_path):
        other = tmp_path / "other.cal"
        other.write_text("box Z ((x) -> (y)): => $y = 1;")
        _, out = run(capsys, "horn", str(other), str(fixtures_dir / "mybox.cal"))
        assert out.index("% box Z") < out.index("% box MYBOX")

    def test_empty_box_section(self, capsys, tmp_path):
        f = tmp_path / "empty.cal"
        f.write_text("box b (() -> ):")
        code, out = run(capsys, "horn", str(f))
        assert code == 0
        assert "% box b" in out

    def test_semantic_error_is_reported(self, capsys, duplicate_field_cal):
        code = main(["horn", str(duplicate_field_cal)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: {duplicate_field_cal}: line 1, column 1: "
            "duplicate field name 'a' in signature\n")


class TestAggregate:
    def test_pipeline_propagation(self, capsys, fixtures_dir):
        code, out = run(capsys, "aggregate",
                        "--net", str(fixtures_dir / "pipeline.net"),
                        "--env", str(fixtures_dir / "pipeline.env"))
        assert code == 0
        assert "B: $q = {value(8), doubled}" in out
        assert "$$T0 = 3 * log(3) + (comm_cost + 1)" in out
        assert "$$M0 = limits(10, 30)" in out

    def test_missing_assertion_still_exit_zero(self, capsys, fixtures_dir):
        code, out = run(capsys, "aggregate",
                        "--net", str(fixtures_dir / "pipeline_noassert.net"),
                        "--env", str(fixtures_dir / "pipeline.env"))
        assert code == 0
        assert "status: warnings" in out
        assert "no association" in out

    def test_arity_mismatch_is_error(self, capsys, tmp_path):
        (tmp_path / "bad.cal").write_text(
            "box A ((x) -> (y)):\nbox B ((p,r) -> (q)):")
        (tmp_path / "bad.net").write_text("use bad.cal\nnet m = A .. B\n")
        code, out = run(capsys, "aggregate", "--net", str(tmp_path / "bad.net"))
        assert code == 1
        assert "A" in out and "B" in out

    def test_single_box_net_matches_eval(self, capsys, fixtures_dir, tmp_path):
        (tmp_path / "one.net").write_text("use pipeline.cal\nnet m = A\n")
        # point the net file at the fixture directory's cal file
        (tmp_path / "pipeline.cal").write_text(
            (fixtures_dir / "pipeline.cal").read_text())
        env = tmp_path / "one.env"
        env.write_text("A.$x = {value(3), Type(int)}\n")
        code, out = run(capsys, "aggregate", "--net", str(tmp_path / "one.net"),
                        "--env", str(env))
        assert code == 0
        assert "A: $y = {Type(int), value(8)}" in out

    def test_box_specific_env_wins_in_eval_and_aggregate(self, capsys, fixtures_dir, tmp_path):
        (tmp_path / "mybox.cal").write_text((fixtures_dir / "mybox.cal").read_text())
        (tmp_path / "one.net").write_text("use mybox.cal\nnet m = MYBOX\n")
        env = tmp_path / "both.env"
        env.write_text(MYBOX_ENV_500 + "MYBOX.$$nthreads = 8\n")
        code, out = run(capsys, "eval", str(tmp_path / "mybox.cal"), "MYBOX",
                        "--env", str(env))
        assert code == 0
        assert "  $$nthreads = 8" in out
        code, out = run(capsys, "aggregate", "--net", str(tmp_path / "one.net"),
                        "--env", str(env))
        assert code == 0
        assert "MYBOX: $$nthreads = 8" in out

    def test_semantic_error_in_library_is_reported(self, capsys, duplicate_field_cal):
        net = duplicate_field_cal.parent / "dup.net"
        net.write_text("use dup.cal\nnet m = X\n")
        code, out = run(capsys, "aggregate", "--net", str(net))
        assert code == 1
        assert "duplicate field name 'a' in signature" in out

    def test_deterministic_byte_identical(self, capsys, fixtures_dir):
        outs = []
        for _ in range(2):
            _, out = run(capsys, "aggregate",
                         "--net", str(fixtures_dir / "pipeline.net"),
                         "--env", str(fixtures_dir / "pipeline.env"))
            outs.append(out)
        assert outs[0] == outs[1]

    def test_out_flag_writes_file(self, capsys, fixtures_dir, tmp_path):
        target = tmp_path / "report.txt"
        code, out = run(capsys, "--out", str(target), "aggregate",
                        "--net", str(fixtures_dir / "pipeline.net"),
                        "--env", str(fixtures_dir / "pipeline.env"))
        assert code == 0
        assert out == ""
        assert "limits(10, 30)" in target.read_text()


    def test_double_negation_cost_reads_back(self, capsys, fixtures_dir, tmp_path):
        net = tmp_path / "neg.net"
        net.write_text(f"use {fixtures_dir / 'pipeline.cal'}\nnet m = A ..[- - $x] B\n")
        code, out = run(capsys, "aggregate", "--net", str(net),
                        "--env", str(fixtures_dir / "pipeline.env"))
        assert code == 0
        assert "$$T0 = 3 * log(3) + (-(-$x) + 1)" in out


class TestInputPositions:
    """Syntax errors in network and environment files name the file's line
    and column."""

    def aggregate(self, capsys, fixtures_dir, tmp_path, net_text, env_text=None):
        net = tmp_path / "m.net"
        net.write_text(net_text.replace("LIB", str(fixtures_dir / "pipeline.cal")))
        env = tmp_path / "m.env"
        env.write_text(env_text or (fixtures_dir / "pipeline.env").read_text())
        return run(capsys, "aggregate", "--net", str(net), "--env", str(env))

    def test_bad_cost_term(self, capsys, fixtures_dir, tmp_path):
        code, out = self.aggregate(capsys, fixtures_dir, tmp_path,
                                   "-- costs\nuse LIB\n\nnet m = A ..[+] B\n")
        assert code == 1
        assert "error: line 4, column 15: expected a term, found ']'" in out

    # Only "\n" ends a line, as in CAL text: "\x0c" and "\u2028" are whitespace.
    @pytest.mark.parametrize("space", [" ", "\x0c", "\u2028"])
    def test_bad_env_term(self, capsys, fixtures_dir, tmp_path, space):
        code, out = self.aggregate(capsys, fixtures_dir, tmp_path, "use LIB\nnet m = A .. B\n",
                                   f"-- inputs{space}\n\nA.$x = {{value(3),{space}}}\n")
        assert code == 1
        assert "error: line 3, column 19: expected a term, found '}'" in out

    @pytest.mark.parametrize("expr, where", [
        ("A .. NOPE", "line 2, column 14: unknown box 'NOPE'"),
        ("A .. | B", "line 2, column 14: expected a box name, found '|'"),
        ("(A .. B", "line 2, column 16: expected ')', found 'end of input'"),
        ("A ; B", "line 2, column 11: expected 'end of input', found ';'"),
        ("A # B", "line 2, column 11: unexpected character '#'"),
    ])
    def test_network_expression_errors(self, capsys, fixtures_dir, tmp_path, expr, where):
        code, out = self.aggregate(capsys, fixtures_dir, tmp_path, f"use LIB\nnet m = {expr}\n")
        assert code == 1
        assert f"error: {where}" in out


DEEP_PREFIX = "box D ((x) -> (y)): => $y = "


def deep_files(tmp_path, term: str):
    (tmp_path / "deep.cal").write_text(DEEP_PREFIX + term + ";\n")
    (tmp_path / "deep.net").write_text("use deep.cal\nnet m = D\n")
    return str(tmp_path / "deep.cal"), str(tmp_path / "deep.net")


class TestDeepNesting:
    """Past the parser's nesting bound every command reports a positioned
    syntax error; at the bound every command works."""

    SHAPES = {
        # a 5,000-term sum: reported at the operator past the bound
        "chain": ("+".join(["1"] * 5000), 2 * (MAX_TERM_DEPTH + 1)),
        # 3,000 nested parentheses: reported at the bracket past the bound
        "parens": ("(" * 3000 + "1" + ")" * 3000, MAX_TERM_DEPTH + 1),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_too_deep_is_a_positioned_error(self, capsys, tmp_path, shape):
        term, col = self.SHAPES[shape]
        cal, net = deep_files(tmp_path, term)
        where = f"line 1, column {len(DEEP_PREFIX) + col}: term nested too deeply"
        for argv in (["check", cal], ["eval", cal, "D"], ["aggregate", "--net", net]):
            code, out = run(capsys, *argv)
            assert code == 1
            assert "status: errors" in out and where in out
        code = main(["horn", cal])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: {cal}: {where}")

    @pytest.mark.parametrize("term, value", [
        ("+".join(["1"] * (MAX_TERM_DEPTH + 1)), MAX_TERM_DEPTH + 1),
        ("(" * MAX_TERM_DEPTH + "1" + ")" * MAX_TERM_DEPTH, 1),
    ])
    def test_term_at_the_bound_works(self, capsys, tmp_path, term, value):
        cal, _ = deep_files(tmp_path, term)
        code, out = run(capsys, "check", cal)
        assert code == 0 and "status: ok" in out
        code, out = run(capsys, "eval", cal, "D")
        assert code == 0 and f"  $y = {value}\n" in out
        code, out = run(capsys, "horn", cal)
        assert code == 0 and out.count("num_eq(Y_1_0, ") == 1


class TestLongNetworks:
    """Chains are walked in a loop; parentheses are bounded like terms."""

    BOX = "box B ((x) -> (y)):\n"

    def aggregate(self, capsys, tmp_path, expr):
        (tmp_path / "b.cal").write_text(self.BOX)
        (tmp_path / "m.net").write_text(f"use b.cal\nnet m = {expr}\n")
        return run(capsys, "aggregate", "--net", str(tmp_path / "m.net"))

    def test_long_chain(self, capsys, tmp_path):
        code, out = self.aggregate(capsys, tmp_path, " .. ".join(["B"] * 1500))
        assert code == 0
        assert "B_1500: fired clauses = (none)" in out
        assert "  $$T0 = unknown" + " + (comm_cost + unknown)" * 1499 + "\n" in out

    def test_600_relay_chain_aggregates_under_6_s(self, capsys, tmp_path):
        # A box merges its branches on its own variables, so its merge
        # does not slow down with the length of the chain upstream of it.
        latencies = [i % 40 + 1 for i in range(600)]
        (tmp_path / "r.cal").write_text("".join(
            f"box R{i} ((x) -> (y)): $x :=: {{value($v)}} \\/ $_ => $y :=: "
            f"{{value($v), Type(int)}}, $$T0 :=: {t}, $$M0 :=: 1;\n"
            for i, t in enumerate(latencies)))
        (tmp_path / "r.net").write_text(
            "use r.cal\nnet m = " + " .. ".join(f"R{i}" for i in range(600)) + "\n")
        (tmp_path / "r.env").write_text("R0.$x = {value(7), Type(int)}\n")
        start = time.perf_counter()
        code, out = run(capsys, "--format", "json", "aggregate", "--net",
                        str(tmp_path / "r.net"), "--env", str(tmp_path / "r.env"))
        elapsed = time.perf_counter() - start
        assert code == 0
        (branch,) = json.loads(out)["sections"][0]["branches"]
        assert branch["$$T0"] == "1" + "".join(f" + (comm_cost + {t})" for t in latencies[1:])
        assert elapsed < 6.0

    @pytest.mark.parametrize("depth", [250, 3000])
    def test_deep_parentheses(self, capsys, tmp_path, depth):
        code, out = self.aggregate(capsys, tmp_path, "(" * depth + "B" + ")" * depth)
        assert code == 1
        col = len("net m = ") + MAX_TERM_DEPTH + 1
        assert f"error: line 2, column {col}: term nested too deeply" in out

    def test_parentheses_at_the_bound(self, capsys, tmp_path):
        depth = MAX_TERM_DEPTH
        code, out = self.aggregate(capsys, tmp_path, "(" * depth + "B .. B" + ")" * depth)
        assert code == 0
        assert "$$T0 = unknown + (comm_cost + unknown)" in out


class TestUndecodableInput:
    """A file that is not UTF-8 is an input error, in every command."""

    BOX = "box b ((x) -> (y)): => $y = 1;\n"

    @pytest.mark.parametrize("command", ["check", "eval", "horn"])
    def test_cal_file(self, capsys, tmp_path, command):
        f = tmp_path / "bad.cal"
        f.write_bytes(self.BOX.encode() + b"\xff\n")
        code = main([command, str(f)] + (["b"] if command == "eval" else []))
        captured = capsys.readouterr()
        assert code == 1
        assert (f"error: cannot read {f}: 'utf-8' codec can't decode byte 0xff"
                in captured.out + captured.err)

    def test_eval_env_file(self, capsys, tmp_path):
        (tmp_path / "b.cal").write_text(self.BOX)
        (tmp_path / "bad.env").write_bytes(b"$$n = 1\xff\n")
        code, out = run(capsys, "eval", str(tmp_path / "b.cal"), "b",
                        "--env", str(tmp_path / "bad.env"))
        assert code == 1
        assert (f"error: cannot read {tmp_path / 'bad.env'}: "
                f"'utf-8' codec can't decode byte 0xff") in out

    def test_aggregate_use_line(self, capsys, tmp_path):
        (tmp_path / "bad.cal").write_bytes(self.BOX.encode() + b"\xff\n")
        (tmp_path / "m.net").write_text("-- a network\nuse bad.cal\nnet m = b\n")
        code, out = run(capsys, "aggregate", "--net", str(tmp_path / "m.net"))
        assert code == 1
        assert (f"error: line 2: cannot read {tmp_path / 'bad.cal'}: "
                f"'utf-8' codec can't decode byte 0xff") in out


class TestInputFiles:
    """Every file a command reads ends in an error naming it, with exit
    code 1, when it is missing or not UTF-8; so does an ``--out`` file
    that cannot be written."""

    BOX = "box b ((x) -> (y)): => $y = 1;\n"
    FILES = {"b.cal": BOX, "b.env": "$$n = 1\n", "m.net": "use b.cal\nnet m = b\n"}

    # A command line and the file in it that is broken.
    CASES = {
        "check-cal": (["check", "b.cal"], "b.cal"),
        "eval-cal": (["eval", "b.cal", "b"], "b.cal"),
        "eval-env": (["eval", "b.cal", "b", "--env", "b.env"], "b.env"),
        "horn-cal": (["horn", "b.cal"], "b.cal"),
        "aggregate-env": (["aggregate", "--net", "m.net", "--env", "b.env"], "b.env"),
        "aggregate-net": (["aggregate", "--net", "m.net"], "m.net"),
        "aggregate-use": (["aggregate", "--net", "m.net"], "b.cal"),
    }

    @pytest.mark.parametrize("fault", ["missing", "undecodable"])
    @pytest.mark.parametrize("case", CASES)
    def test_unreadable_input(self, capsys, tmp_path, case, fault):
        argv, broken = self.CASES[case]
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text)
        if fault == "missing":
            (tmp_path / broken).unlink()
        else:
            (tmp_path / broken).write_bytes(self.FILES[broken].encode() + b"\xff\n")
        argv = [str(tmp_path / a) if a in self.FILES else a for a in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert f"cannot read {tmp_path / broken}: " in captured.out + captured.err

    @pytest.mark.parametrize("command", ["check", "horn"])
    def test_unwritable_out(self, capsys, tmp_path, command):
        (tmp_path / "b.cal").write_text(self.BOX)
        out = tmp_path / "nonexistent" / "dir" / "f"
        code = main(["--out", str(out), command, str(tmp_path / "b.cal")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")


class TestEnvPrecedence:
    """Which line of an environment file binds a variable.  ``net n = B | B``
    has the instances ``B`` and ``B_2``; ``B_2`` reads ``B_2.`` and ``B.``
    lines."""

    BOX = "box B ((x) -> (y)): => $y :=: $x;\n"

    @pytest.mark.parametrize("command, env, code, lines", [
        # For the same target, the last line wins.
        ("eval", "B.$x = 1\n$$n = 1\nB.$x = 2\n$$n = 2\n", 0, ["  $x = 2", "  $$n = 2"]),
        # Of a line under the instance name and one under the box name,
        # the first wins.
        ("aggregate", "B_2.$x = 1\nB.$x = 2\n", 0, ["B: $x = 2", "B_2: $x = 1"]),
        ("aggregate", "B.$x = 2\nB_2.$x = 1\n", 0, ["B: $x = 2", "B_2: $x = 2"]),
        # A box-specific line beats a global one, before or after it.
        ("eval", "$$n = 1\nB.$$n = 2\n", 0, ["  $$n = 2"]),
        ("eval", "B.$$n = 2\n$$n = 1\n", 0, ["  $$n = 2"]),
        ("aggregate", "$$n = 1\nB_2.$$n = 2\n", 0, ["B: $$n = 1", "B_2: $$n = 2"]),
        # A field the box does not have is an error.
        ("eval", "B.$nope = 1\n", 1, ["error: box B has no field 'nope'"]),
        ("aggregate", "B.$nope = 1\n", 1, ["error: box B has no field 'nope'"]),
        # An environment variable no clause mentions is still reported.
        ("eval", "$$foo = 3\n", 0, ["  $$foo = 3"]),
    ])
    def test_env_precedence(self, capsys, tmp_path, command, env, code, lines):
        (tmp_path / "b.cal").write_text(self.BOX)
        (tmp_path / "b.net").write_text("use b.cal\nnet n = B | B\n")
        (tmp_path / "b.env").write_text(env)
        argv = (["eval", str(tmp_path / "b.cal"), "B"] if command == "eval"
                else ["aggregate", "--net", str(tmp_path / "b.net")])
        got, out = run(capsys, *argv, "--env", str(tmp_path / "b.env"))
        assert got == code
        for line in lines:
            assert line + "\n" in out


def _branch_tables(out):
    """The tables of a text report's branches, in order."""
    return re.split(r"^branch \d+ of \d+:\n", out.split("\ndiagnostics:")[0], flags=re.M)[1:]


def test_env_variables_are_apart_from_box_variables(capsys, tmp_path):
    # The env file's $w is not the box's first variable $x.
    (tmp_path / "b.cal").write_text("box B ((x) -> (y)): $x :=: {a} \\/ $r => $y :=: $r;\n")
    (tmp_path / "b.env").write_text("B.$x = {a, b} \\/ $w\n")
    code, out = run(capsys, "eval", str(tmp_path / "b.cal"), "B",
                    "--env", str(tmp_path / "b.env"))
    assert code == 0
    assert "status: ok" in out
    # B binds $w in two ways with the same tables: the env file's $w is
    # no box variable, so those branches are one.
    assert "branch 2 of 2:" in out and "branch 3" not in out
    first, second = _branch_tables(out)
    assert first != second


def test_env_variable_shared_by_two_boxes_keeps_branches_apart(capsys, tmp_path):
    # B binds the env file's $w in two ways, and C's $x holds $w too, so
    # every branch prints a table of its own.
    (tmp_path / "bc.cal").write_text("box B ((x) -> (y)): $x :=: {a} \\/ $r => $y :=: $r;\n"
                                     "box C ((x) -> (y)): => $y :=: $x;\n")
    (tmp_path / "bc.net").write_text("use bc.cal\nnet n = B | C\n")
    (tmp_path / "bc.env").write_text("B.$x = {a, b} \\/ $w\nC.$x = {c} \\/ $w\n")
    code, out = run(capsys, "aggregate", "--net", str(tmp_path / "bc.net"),
                    "--env", str(tmp_path / "bc.env"))
    assert code == 0
    assert "status: ok" in out
    tables = _branch_tables(out)
    assert len(tables) == 3 and "branch 3 of 3:" in out
    assert len(set(tables)) == 3
    assert "  C: $x = {c, a} \\/ $_G0\n" in tables[2]


def test_channel_digits_must_be_canonical(capsys, tmp_path):
    # "T01" is not channel 1, which aggregation reads as "T1": check says so.
    f = tmp_path / "t01.cal"
    f.write_text("box b ((x) -> (y), (z)): => $$T01 = 5, $$T0 = 1;\n")
    code, out = run(capsys, "check", str(f))
    assert code == 0
    assert "status: warnings" in out
    assert "warning (line 1, column 1): b: $$T01 names no output channel" in out
    assert out.count("warning (") == 1


def test_non_decimal_digit_in_channel_name_is_no_channel(capsys, tmp_path):
    # "T²" is a name, not channel 2: it is neither read as an index nor
    # warned about.
    f = tmp_path / "digit.cal"
    f.write_text("box b (() -> (b)): => $$T² :=: 1;\n")
    code, out = run(capsys, "check", str(f))
    assert code == 0
    assert "status: ok" in out


def test_non_decimal_digit_is_reported(capsys, tmp_path):
    f = tmp_path / "digit.cal"
    f.write_text("box b (() -> (b)): => $b = 1 + ²;\n")
    code, out = run(capsys, "check", str(f))
    assert code == 1
    assert f"error: {f}: line 1, column 32: unexpected character '²'" in out


class TestFaultsNameTheirFile:
    """A syntax or semantic error in a ``.cal`` file names the file, as
    calang opened it."""

    BAD = "box b ((x -> (y)): => $y = 1;\n"
    WHERE = "line 1, column 11: expected ')', found '->'"

    def test_check_names_the_bad_file(self, capsys, tmp_path):
        (tmp_path / "good.cal").write_text("box g ((x) -> (y)): => $y = 1;\n")
        (tmp_path / "bad.cal").write_text(self.BAD)
        code, out = run(capsys, "check", str(tmp_path / "good.cal"), str(tmp_path / "bad.cal"))
        assert code == 1
        assert f"error: {tmp_path / 'bad.cal'}: {self.WHERE}\n" in out

    def test_aggregate_names_the_used_file(self, capsys, tmp_path):
        (tmp_path / "bad.cal").write_text(self.BAD)
        (tmp_path / "m.net").write_text("use bad.cal\nnet m = b\n")
        code, out = run(capsys, "aggregate", "--net", str(tmp_path / "m.net"))
        assert code == 1
        assert f"error: {tmp_path / 'bad.cal'}: {self.WHERE}\n" in out


class TestLongNumbers:
    """Numbers past Python's 4,300-digit int/str limit end in a report."""

    def test_long_literal_is_a_positioned_syntax_error(self, capsys, tmp_path):
        f = tmp_path / "long.cal"
        f.write_text("box b (() -> (b)): => $b = " + "9" * 5000 + ";\n")
        code, out = run(capsys, "check", str(f))
        assert code == 1
        assert (f"error: {f}: line 1, column 28: number literal with more than "
                "4300 digits") in out

    def test_long_channel_number_is_past_the_signature(self, capsys, tmp_path):
        f = tmp_path / "long.cal"
        f.write_text("box b (() -> (b)): => $$T" + "9" * 5000 + " :=: 1;\n")
        code, out = run(capsys, "check", str(f))
        assert code == 0
        assert "exceeds the 1 output channel(s) of the signature" in out
        (tmp_path / "m.net").write_text("use long.cal\nnet m = b\n")
        code, out = run(capsys, "aggregate", "--net", str(tmp_path / "m.net"))
        assert code == 0
        assert "$$T0 = unknown\n" in out

    @pytest.mark.parametrize("power", ["10^5000", "2^(10^12)", "1/(10^3000 * 10^3000)"])
    def test_long_result_is_carried_as_its_term(self, capsys, tmp_path, power):
        f = tmp_path / "power.cal"
        f.write_text(f"box P (() -> (b)): => $b = {power};\n")
        code, out = run(capsys, "eval", str(f), "P")
        assert code == 0
        assert "status: ok" in out
        assert "fired clauses = 1\n" in out and "  $b = " in out
