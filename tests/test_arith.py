"""Arithmetic tests.

The exactness expectations come from an independent oracle that computes
the four field operations on raw integer (numerator, denominator) pairs
with its own gcd reduction, never touching the engine's number type.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from calang import syntax
from calang.arith import (
    DIVISION_BY_ZERO,
    FROZEN_VARIABLE,
    NEG_INF,
    POS_INF,
    SET_IN_ARITH,
    UNBOUND_VARIABLE,
    UNKNOWN,
    UNKNOWN_SYMBOL,
    VARIABLE_HEAD,
    PredicateFailure,
    apply_builtin,
    eval_numeric,
    eval_relation,
)
from calang.clauses import Predicate, evaluate_condition
from calang.terms import (
    HAT,
    LOCAL,
    MINUS,
    PLUS,
    SLASH,
    TIMES,
    Num,
    SetTerm,
    Sym,
    Tup,
    Var,
    VarScope,
    desugar,
)
from calang.unify import BindingStore, resolve


def d(text, scope=None):
    return desugar(syntax.parse_term(text), scope)


def big_int_oracle(op, an, ad, bn, bd):
    """Field operations on integer pairs, reduced by gcd: independent of
    Fraction."""
    if op == "+":
        n, dd = an * bd + bn * ad, ad * bd
    elif op == "-":
        n, dd = an * bd - bn * ad, ad * bd
    elif op == "*":
        n, dd = an * bn, ad * bd
    else:
        if bn == 0:
            return None
        n, dd = an * bd, ad * bn
    if dd < 0:
        n, dd = -n, -dd
    g = gcd(abs(n), dd) or 1
    return (n // g, dd // g)


OPS = {"+": PLUS, "-": MINUS, "*": TIMES, "/": SLASH}


class TestExactness:
    def test_rational_addition(self):
        assert eval_numeric(d("1/2 + 1/3")) == Fraction(5, 6)

    def test_set_fails(self):
        out = eval_numeric(d("{1, 2}"))
        assert isinstance(out, PredicateFailure) and out.reason == SET_IN_ARITH

    def test_bound_variable_times_log(self):
        scope = VarScope()
        t = d("$m * log($m)", scope)
        s = BindingStore().bind(scope.known("m"), Num(Fraction(7)))
        # log(7) is not a power of two: stays unknown, and so does the
        # product (checked against the absorption rule, the independent
        # reading of "unknown times anything").
        assert eval_numeric(t, s) is UNKNOWN
        s8 = BindingStore().bind(scope.known("m"), Num(Fraction(8)))
        assert eval_numeric(t, s8) == Fraction(24)  # 8 * log2(8)

    def test_unbound_variable_fails(self):
        out = eval_numeric(d("$x"))
        assert isinstance(out, PredicateFailure) and out.reason == UNBOUND_VARIABLE

    def test_unknown_symbol_fails(self):
        out = eval_numeric(d("someident"))
        assert isinstance(out, PredicateFailure) and out.reason == UNKNOWN_SYMBOL

    def test_standard_constants(self):
        assert eval_numeric(d("infinity")) is POS_INF
        assert eval_numeric(d("maxint")) == Fraction(2**63 - 1)
        assert eval_numeric(d("unknown")) is UNKNOWN

    def test_variable_head_fails(self):
        scope = VarScope()
        t = Tup((scope.lookup("f", 1), Num(Fraction(1))))
        out = eval_numeric(t)
        assert isinstance(out, PredicateFailure) and out.reason == VARIABLE_HEAD

    def test_random_field_ops_against_oracle(self):
        rng = random.Random(20240)
        for _ in range(2000):
            op = rng.choice("+-*/")
            an, ad = rng.randint(-999, 999), rng.randint(1, 999)
            bn, bd = rng.randint(-999, 999), rng.randint(1, 999)
            t = Tup((Sym(OPS[op]), Num(Fraction(an, ad)), Num(Fraction(bn, bd))))
            got = eval_numeric(t)
            want = big_int_oracle(op, an, ad, bn, bd)
            if want is None:
                assert isinstance(got, PredicateFailure)
                assert got.reason == DIVISION_BY_ZERO
            else:
                assert isinstance(got, Fraction)
                assert (got.numerator, got.denominator) == want


class TestBuiltins:
    def test_integer_power(self):
        assert apply_builtin(HAT, [Fraction(2), Fraction(10)]) == 1024

    def test_division_by_zero(self):
        out = apply_builtin(SLASH, [Fraction(1), Fraction(0)])
        assert isinstance(out, PredicateFailure) and out.reason == DIVISION_BY_ZERO

    def test_unknown_absorbs(self):
        assert apply_builtin(PLUS, [UNKNOWN, Fraction(5)]) is UNKNOWN

    def test_fractional_exponent_is_unknown(self):
        assert apply_builtin(HAT, [Fraction(7), Fraction(3, 2)]) is UNKNOWN

    def test_negative_power_exact(self):
        assert apply_builtin(HAT, [Fraction(2), Fraction(-2)]) == Fraction(1, 4)

    def test_power_too_long_to_write_is_unknown_before_it_is_computed(self):
        huge = Fraction(10**12)
        assert apply_builtin(HAT, [Fraction(2), huge]) is UNKNOWN
        assert apply_builtin(HAT, [Fraction(1, 3), -huge]) is UNKNOWN
        assert apply_builtin(HAT, [Fraction(0), huge]) == 0
        assert apply_builtin(HAT, [Fraction(1), -huge]) == 1
        assert apply_builtin(HAT, [Fraction(-1), huge + 1]) == -1

    def test_log_powers_of_two_only(self):
        assert apply_builtin("log", [Fraction(8)]) == 3
        assert apply_builtin("log", [Fraction(1)]) == 0
        assert apply_builtin("log", [Fraction(7)]) is UNKNOWN
        assert apply_builtin("log", [Fraction(1, 4)]) is UNKNOWN

    def test_unary_minus(self):
        assert apply_builtin(MINUS, [Fraction(5)]) == -5
        assert apply_builtin(MINUS, [POS_INF]) is NEG_INF

    def test_extended_reals(self):
        assert apply_builtin(PLUS, [POS_INF, Fraction(1)]) is POS_INF
        assert apply_builtin(PLUS, [POS_INF, NEG_INF]) is UNKNOWN
        assert apply_builtin(TIMES, [Fraction(0), POS_INF]) is UNKNOWN
        assert apply_builtin(TIMES, [Fraction(-2), POS_INF]) is NEG_INF
        assert apply_builtin(SLASH, [Fraction(5), POS_INF]) == 0

    def test_wrong_arity(self):
        out = apply_builtin(PLUS, [Fraction(1)])
        assert isinstance(out, PredicateFailure) and out.reason == "arity"

    def test_unrecognized_function(self):
        out = apply_builtin("Poisson", [Fraction(1)])
        assert isinstance(out, PredicateFailure) and out.reason == "unknown-function"


@given(st.sampled_from([PLUS, MINUS, TIMES, SLASH, HAT]),
       st.lists(st.one_of(
           st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50)),
           st.sampled_from([POS_INF, NEG_INF, UNKNOWN])),
           min_size=2, max_size=2))
def test_unknown_absorption_property(op, args):
    if UNKNOWN in args:
        assert apply_builtin(op, args) is UNKNOWN


class TestEvalRelation:
    def make(self, text):
        scope = VarScope()
        pred = syntax.parse_predicate(text)
        return (desugar(pred.lhs, scope), pred.op, desugar(pred.rhs, scope), scope)

    def test_guard_true(self):
        lhs, op, rhs, scope = self.make("$kv > $$nthreads * 100")
        s = (BindingStore()
             .bind(scope.known("kv"), Num(Fraction(500)))
             .bind(scope.known("nthreads", 2), Num(Fraction(4))))
        holds, s2 = eval_relation(lhs, op, rhs, s)
        assert holds and s2 is s

    def test_guard_false(self):
        lhs, op, rhs, scope = self.make("$kv > $$nthreads * 100")
        s = (BindingStore()
             .bind(scope.known("kv"), Num(Fraction(100)))
             .bind(scope.known("nthreads", 2), Num(Fraction(4))))
        holds, _ = eval_relation(lhs, op, rhs, s)
        assert holds is False

    def test_functional_equality_binds(self):
        lhs, op, rhs, scope = self.make("$n1 = $n + 1")
        s = BindingStore().bind(scope.known("n"), Num(Fraction(7)))
        holds, s2 = eval_relation(lhs, op, rhs, s)
        assert holds
        assert resolve(scope.known("n1"), s2) == Num(Fraction(8))

    def test_bound_equality_compares(self):
        lhs, op, rhs, scope = self.make("$n = 7")
        s = BindingStore().bind(scope.known("n"), Num(Fraction(7)))
        holds, _ = eval_relation(lhs, op, rhs, s)
        assert holds
        s_bad = BindingStore().bind(scope.known("n"), Num(Fraction(8)))
        holds, _ = eval_relation(lhs, op, rhs, s_bad)
        assert holds is False

    def test_unknown_comparison_fails(self):
        # forced by the unknown-comparison rule; a truth table over the
        # numeric value kinds confirms no boolean verdict is available
        lhs, op, rhs, _ = self.make("5 >= unknown")
        out = eval_relation(lhs, op, rhs, BindingStore())
        assert isinstance(out, PredicateFailure)

    def test_equality_with_set_rhs_binds_through_unification(self):
        # A = with a written set is an equivalence: the predicate walk
        # unifies it, and eval_relation, numeric only, refuses the set.
        lhs, op, rhs, scope = self.make("$d = $base \\/ {rank(3)}")
        base_val = SetTerm([Tup((Sym("Type"), Sym("int")))])
        s = BindingStore().bind(scope.known("base"), base_val)
        out = eval_relation(lhs, op, rhs, s)
        assert isinstance(out, PredicateFailure) and out.reason == SET_IN_ARITH
        (s2,) = evaluate_condition([Predicate(lhs, op, rhs)], s)
        got = resolve(scope.known("d"), s2)
        assert got == SetTerm([Tup((Sym("Type"), Sym("int"))),
                               Tup((Sym("rank"), Num(Fraction(3))))])

    def test_unbound_lhs_non_eq_fails(self):
        lhs, op, rhs, _ = self.make("$x != 5")
        out = eval_relation(lhs, op, rhs, BindingStore())
        assert isinstance(out, PredicateFailure)
        assert out.reason == UNBOUND_VARIABLE

    def test_frozen_unbound_lhs_fails(self):
        # = binds an unbound left-hand variable, unless it may not bind.
        lhs, op, rhs, scope = self.make("$x = 3")
        out = eval_relation(lhs, op, rhs, BindingStore(), frozenset([scope.known("x")]))
        assert out == PredicateFailure(FROZEN_VARIABLE, "x")

    def test_symbolic_rhs_binds_term(self):
        lhs, op, rhs, scope = self.make("$t = $m ^ (3/2)")
        s = BindingStore().bind(scope.known("m"), Num(Fraction(7)))
        holds, s2 = eval_relation(lhs, op, rhs, s)
        assert holds
        assert resolve(scope.known("t"), s2) == Tup((Sym(HAT), Num(Fraction(7)),
                                                     Num(Fraction(3, 2))))

    def test_read_only_except_eq_binding(self):
        lhs, op, rhs, scope = self.make("$kv <= 100")
        s = BindingStore().bind(scope.known("kv"), Num(Fraction(5)))
        holds, s2 = eval_relation(lhs, op, rhs, s)
        assert holds and len(s2) == len(s)
