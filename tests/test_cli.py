import json
from pathlib import Path

import pytest

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
        assert "error: line 1, column 1: duplicate field name 'a' in signature" in out


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
            "error: line 1, column 1: duplicate field name 'a' in signature\n")


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
        assert captured.err.startswith(f"error: {where}")

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


def test_non_decimal_digit_is_reported(capsys, tmp_path):
    f = tmp_path / "digit.cal"
    f.write_text("box b (() -> (b)): => $b = 1 + ²;\n")
    code, out = run(capsys, "check", str(f))
    assert code == 1
    assert "error: line 1, column 32: unexpected character '²'" in out
